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
// Resilience: -retries retries transient failures (shed 429s,
// draining 503s, network errors, integrity failures) with seeded
// jittered backoff, honoring the server's Retry-After. Response
// bodies are verified against the daemon's X-Hmeans-Digest header, so
// a corrupted byte stream is an error, never a silently wrong score.
//
// Exit codes: 0 ok, 1 internal/timeout, 2 usage, 3 invalid input
// (HTTP 400), 4 service unavailable (HTTP 429/503 after retries),
// 5 transport failure (network error or integrity mismatch).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"hmeans/internal/cliutil"
	"hmeans/internal/dataio"
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
	)
	timeout := cliutil.RegisterTimeout(fs)
	obsFlags := obs.RegisterFlags(fs)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if obsFlags.PrintVersion(stdout, "hmeansctl") {
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
	req, err := buildRequest(*scoresPath, *charsPath, *kind, *seed, *k)
	if err != nil {
		return err
	}
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
	rt := resilience.NewRetryer(resilience.Policy{
		MaxRetries: *retries,
		BaseDelay:  *retryBase,
		Jitter:     0.25,
	}, *retrySeed)
	var res postResult
	err = rt.Do(ctx, func(ctx context.Context) error {
		r, err := post(ctx, base+"/v1/score", id, body)
		if err != nil {
			return err
		}
		res = r
		return nil
	}, retryable)
	if err != nil {
		return err
	}
	if *verbose {
		fmt.Fprintf(stderr, "cache: %s\n", res.cacheStatus)
		if res.replica != "" {
			fmt.Fprintf(stderr, "replica: %s (route %s)\n", res.replica, res.route)
		}
	}
	if *rawJSON {
		_, err := stdout.Write(res.raw)
		return err
	}
	var resp service.Response
	if err := json.Unmarshal(res.raw, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return render(&resp, *meanName, *k, stdout)
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

// buildRequest loads the CSVs and assembles the service request, with
// the characterization rows aligned to the score order the same way
// the batch CLI aligns them.
func buildRequest(scoresPath, charsPath, kind string, seed uint64, k int) (*service.Request, error) {
	sf, err := os.Open(scoresPath)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	scores, err := dataio.ReadScores(sf)
	if err != nil {
		return nil, err
	}
	cf, err := os.Open(charsPath)
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	m, err := dataio.ReadMatrix(cf)
	if err != nil {
		return nil, err
	}
	rowOf := make(map[string][]float64, len(m.Workloads))
	for i, name := range m.Workloads {
		rowOf[name] = m.Rows[i]
	}
	rows := make([][]float64, len(scores.Workloads))
	for i, name := range scores.Workloads {
		row, ok := rowOf[name]
		if !ok {
			return nil, fmt.Errorf("workload %q has a score but no characterization row", name)
		}
		rows[i] = row
	}
	switch kind {
	case "counters", "bits":
	default:
		return nil, cliutil.Usagef("unknown characterization kind %q (want counters or bits)", kind)
	}
	return &service.Request{
		Table: service.TableJSON{
			Workloads: scores.Workloads,
			Features:  m.Features,
			Rows:      rows,
		},
		Scores: map[string][]float64{"scores": scores.Values},
		Config: service.ConfigJSON{Kind: kind, Seed: seed},
		K:      k,
	}, nil
}

// remoteError carries an error reported by the daemon. 400s mark
// invalid input, so hmeansctl exits with the same status 3 the batch
// CLI uses for bad data; 429 (shed) and 503 (draining) mark a service
// that will take the work later, so they exit 4 — distinct from both
// bad data and real failures.
type remoteError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *remoteError) Error() string { return fmt.Sprintf("%s (HTTP %d)", e.msg, e.status) }

// DataError implements cliutil's marker for invalid-input errors.
func (e *remoteError) DataError() bool { return e.status == http.StatusBadRequest }

// ExitCode implements cliutil.ExitCoder: 4 for "unavailable, retry
// later" statuses, the conventional 1 for everything else. (400 never
// reaches this — the DataError mapping to 3 wins first.)
func (e *remoteError) ExitCode() int {
	if e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable {
		return cliutil.ExitUnavailable
	}
	return 1
}

// RetryAfter feeds the server's Retry-After hint to the retryer.
func (e *remoteError) RetryAfter() time.Duration { return e.retryAfter }

// transportError marks a network-level failure: the request may never
// have reached the daemon, or the response never cleanly arrived
// (connection errors, torn reads, integrity mismatches). Exit code 5.
type transportError struct{ err error }

func (e *transportError) Error() string { return fmt.Sprintf("transport: %v", e.err) }
func (e *transportError) Unwrap() error { return e.err }
func (e *transportError) ExitCode() int { return cliutil.ExitTransport }

// retryable says which failures a retry can plausibly fix: transport
// damage and "come back later" statuses. Invalid input and server
// bugs fail the same way every time — retrying them is noise.
func retryable(err error) bool {
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	var re *remoteError
	if errors.As(err, &re) {
		switch re.status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusBadGateway, http.StatusGatewayTimeout:
			return true
		}
	}
	return false
}

type postResult struct {
	raw         []byte
	cacheStatus string
	// replica and route are set when the answer came through a gateway
	// (X-Hmeans-Replica / X-Hmeans-Route): which replica computed the
	// bytes, and whether this request led, followed or took over the
	// cross-replica singleflight lease.
	replica string
	route   string
}

// post sends the encoded score request once and classifies every
// failure mode: network errors and integrity mismatches become
// transportError, non-200s become remoteError with the Retry-After
// hint attached, and a 200 body must match its X-Hmeans-Digest before
// it counts as an answer.
func post(ctx context.Context, url, requestID string, body []byte) (postResult, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return postResult{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(service.HeaderRequestID, requestID)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return postResult{}, ctx.Err()
		}
		return postResult{}, &transportError{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return postResult{}, ctx.Err()
		}
		return postResult{}, &transportError{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(raw))
		var werr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &werr) == nil && werr.Error != "" {
			msg = werr.Error
		}
		re := &remoteError{status: resp.StatusCode, msg: msg}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			msg += " (retry after " + ra + "s)"
			re.msg = msg
			if sec, err := strconv.Atoi(ra); err == nil && sec > 0 {
				re.retryAfter = time.Duration(sec) * time.Second
			}
		}
		return postResult{}, re
	}
	if err := service.VerifyDigest(resp.Header.Get(service.HeaderDigest), raw); err != nil {
		return postResult{}, &transportError{err: err}
	}
	return postResult{
		raw:         raw,
		cacheStatus: resp.Header.Get("X-Hmeans-Cache"),
		replica:     resp.Header.Get("X-Hmeans-Replica"),
		route:       resp.Header.Get("X-Hmeans-Route"),
	}, nil
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
