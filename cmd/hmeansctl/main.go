// Command hmeansctl is the client for the hmeansd scoring service:
// it loads the same CSV inputs the batch hmeans CLI takes, sends them
// to a running daemon, and prints the result in the batch CLI's
// output format — so the two are directly diffable, which is exactly
// what the serve-smoke CI job does.
//
//	hmeansctl -addr http://127.0.0.1:8080 -scores speedups.csv -chars sar.csv -k 6
//	hmeansctl -addr http://127.0.0.1:8080 -health
//	hmeansctl -gateway http://127.0.0.1:8090 -scores speedups.csv -chars sar.csv -k 6
//
// -gateway targets an hmeansgw front tier instead of a single daemon;
// the protocol (and the bytes) are identical, and -v additionally
// reports which replica served the response and the routing role
// (X-Hmeans-Replica, X-Hmeans-Route).
//
// -json dumps the raw response bytes instead, byte-identical across
// cache hits and cold paths for identical inputs.
//
// Every request is sent with an X-Request-ID (-request-id, generated
// when omitted); -v prints it, and the daemon logs and traces the
// same ID, so one key correlates client output with server telemetry.
//
// Requests go through service.Remote, the one client of the scoring
// protocol, which the gateway and hmeansload use too. -retries
// retries transient failures (shed 429s, draining 503s, network
// errors, integrity failures) with seeded jittered backoff, honoring
// the server's Retry-After. Response bodies are verified against the
// daemon's X-Hmeans-Digest header, so a corrupted byte stream is an
// error, never a silently wrong score.
//
// Exit codes: 0 ok, 1 internal/timeout, 2 usage, 3 invalid input
// (HTTP 400), 4 service unavailable (HTTP 429/503 after retries),
// 5 transport failure (network error or integrity mismatch).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"hmeans/internal/cliutil"
	"hmeans/internal/gateway"
	"hmeans/internal/load"
	"hmeans/internal/obs"
	"hmeans/internal/resilience"
	"hmeans/internal/service"
	"hmeans/internal/viz"
)

func main() {
	os.Exit(cliutil.Run("hmeansctl", os.Stderr, func() error {
		return run(os.Args[1:], os.Stdout, os.Stderr)
	}))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hmeansctl", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "http://127.0.0.1:8080", "base URL of the hmeansd service")
		gatewayURL = fs.String("gateway", "", "base URL of an hmeansgw gateway to target instead of -addr")
		scoresPath = fs.String("scores", "", "CSV of workload,score")
		charsPath  = fs.String("chars", "", "CSV characterization matrix")
		kind       = fs.String("kind", "counters", "characterization kind: counters or bits")
		meanName   = fs.String("mean", "geometric", "mean family to print: geometric, arithmetic or harmonic")
		k          = fs.Int("k", 0, "cluster count to cut at (0: sweep 2..n)")
		seed       = fs.Uint64("seed", 2007, "SOM training seed")
		health     = fs.Bool("health", false, "check the daemon's /healthz and exit")
		rawJSON    = fs.Bool("json", false, "print the raw JSON response instead of the rendered result")
		verbose    = fs.Bool("v", false, "report the request ID and cache status (X-Request-ID, X-Hmeans-Cache) on stderr")
		requestID  = fs.String("request-id", "", "X-Request-ID to send for cross-process correlation (empty: generate one)")
		retries    = fs.Int("retries", 0, "retry transient failures (429/503, network errors) up to this many times")
		retryBase  = fs.Duration("retry.base", 100*time.Millisecond, "base backoff between retries (doubles per attempt, ±25% seeded jitter)")
		retrySeed  = fs.Uint64("retry.seed", 2007, "seed for the retry jitter (deterministic schedules for scripted runs)")
		version    = fs.Bool("version", false, "print version/build info and exit")
	)
	timeout := cliutil.RegisterTimeout(fs)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(stdout, "hmeansctl %s\n", obs.Version())
		return nil
	}
	if err := cliutil.ValidateMin("-retries", *retries, 0); err != nil {
		return err
	}
	if *retryBase < 0 {
		return cliutil.Usagef("-retry.base must be >= 0, got %v", *retryBase)
	}
	ctx, cancel := cliutil.WithTimeout(*timeout)
	defer cancel()
	// A gateway speaks the same protocol as a replica (same /v1/score,
	// same digests, byte-identical responses), so targeting one is just
	// a different base URL — plus routing headers that -v reports.
	base := strings.TrimSuffix(*addr, "/")
	if *gatewayURL != "" {
		base = strings.TrimSuffix(*gatewayURL, "/")
	}
	if *health {
		return checkHealth(ctx, base, stdout)
	}
	if *scoresPath == "" || *charsPath == "" {
		return cliutil.Usagef("-scores and -chars are both required")
	}
	switch *kind {
	case "counters", "bits":
	default:
		return cliutil.Usagef("unknown characterization kind %q (want counters or bits)", *kind)
	}
	req, err := load.BaseRequestFromCSV(*scoresPath, *charsPath, *kind, *seed)
	if err != nil {
		return err
	}
	req.K = *k
	// The correlation ID is decided client-side (or generated here) so
	// it is known even when the daemon never answers: the same ID then
	// names this request in the daemon's access log and trace.
	id := *requestID
	if id == "" {
		id = service.NewRequestID()
	}
	if *verbose {
		fmt.Fprintf(stderr, "request: %s\n", id)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("encoding request: %w", err)
	}
	remote := service.NewRemote(service.RemoteConfig{
		BaseURL: base,
		Retry: resilience.Policy{
			MaxRetries: *retries,
			BaseDelay:  *retryBase,
			Jitter:     0.25,
		},
		Seed: *retrySeed,
	})
	raw, hdr, err := remote.Post(service.WithRequestID(ctx, id), body)
	if err != nil {
		return withExitCode(err)
	}
	if *verbose {
		fmt.Fprintf(stderr, "cache: %s\n", hdr.Get(service.HeaderCache))
		if replica := hdr.Get(gateway.HeaderReplica); replica != "" {
			fmt.Fprintf(stderr, "replica: %s (route %s)\n", replica, hdr.Get(gateway.HeaderRoute))
		}
	}
	if *rawJSON {
		_, err := stdout.Write(raw)
		return err
	}
	var resp service.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return render(&resp, *meanName, *k, stdout)
}

// exitError gives a failure the exit code scripts branch on.
type exitError struct {
	error
	code int
}

func (e exitError) ExitCode() int { return e.code }
func (e exitError) Unwrap() error { return e.error }

// withExitCode maps a failed post onto hmeansctl's exit codes: a
// service that will take the work later (429 shed, 503 draining)
// exits 4, a transport failure (integrity mismatches included) exits
// 5. A 400 needs no mapping — UpstreamError marks it as invalid input,
// which exits 3 — and everything else exits 1.
func withExitCode(err error) error {
	var ue *service.UpstreamError
	var te *service.TransportError
	switch {
	case errors.As(err, &ue) && (ue.Status == http.StatusTooManyRequests || ue.Status == http.StatusServiceUnavailable):
		return exitError{err, cliutil.ExitUnavailable}
	case errors.As(err, &te):
		return exitError{err, cliutil.ExitTransport}
	}
	return err
}

func checkHealth(ctx context.Context, base string, stdout io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	_, err = io.Copy(stdout, resp.Body)
	return err
}

// render prints the response in the batch CLI's format: the same
// quarantine lines, the same mean lines for a fixed k (cluster
// members included), the same sweep table otherwise.
func render(resp *service.Response, meanName string, k int, stdout io.Writer) error {
	var h func(service.KMeans, service.PlainMeans) (float64, float64)
	switch meanName {
	case "geometric":
		h = func(m service.KMeans, p service.PlainMeans) (float64, float64) { return m.HGM, p.GM }
	case "arithmetic":
		h = func(m service.KMeans, p service.PlainMeans) (float64, float64) { return m.HAM, p.AM }
	case "harmonic":
		h = func(m service.KMeans, p service.PlainMeans) (float64, float64) { return m.HHM, p.HM }
	default:
		return cliutil.Usagef("unknown mean %q (want geometric, arithmetic or harmonic)", meanName)
	}
	if len(resp.Plain) != 1 {
		return fmt.Errorf("expected one score vector in response, got %d", len(resp.Plain))
	}
	pm := resp.Plain[0]
	for _, q := range resp.Quarantined {
		fmt.Fprintf(stdout, "quarantined %s: %s\n", q.Workload, q.Reason)
	}
	byK := make(map[int]service.KMeans, len(resp.Means))
	for _, m := range resp.Means {
		byK[m.K] = m
	}
	if k > 0 {
		m, ok := byK[k]
		if !ok {
			return fmt.Errorf("response has no means at k=%d", k)
		}
		hv, pv := h(m, pm)
		fmt.Fprintf(stdout, "hierarchical %s mean (k=%d): %.4f\n", meanName, k, hv)
		fmt.Fprintf(stdout, "plain %s mean:              %.4f\n", meanName, pv)
		for label, ms := range resp.Cut.Members {
			fmt.Fprintf(stdout, "cluster %d: %v\n", label, ms)
		}
		return nil
	}
	t := viz.NewTable("k", "hierarchical", "plain")
	for kk := 2; kk <= len(resp.Workloads); kk++ {
		m, ok := byK[kk]
		if !ok {
			continue
		}
		hv, pv := h(m, pm)
		if err := t.AddRowf(fmt.Sprintf("%d", kk), "%.4f", hv, pv); err != nil {
			return err
		}
	}
	return t.Render(stdout)
}
