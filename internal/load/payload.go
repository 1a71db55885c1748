package load

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"hmeans/internal/dataio"
	"hmeans/internal/rng"
	"hmeans/internal/service"
)

// Kind classifies one request in the payload mix.
type Kind uint8

// The payload kinds. Hits replay one fixed request (after the first
// compute every reply comes from the content-addressed cache), misses
// carry a unique SOM seed each (distinct cache key, full pipeline
// run), and invalids are rejected by request validation with a 400
// before any computation — the cheap-failure traffic a public
// endpoint sees constantly.
const (
	KindHit Kind = iota
	KindMiss
	KindInvalid
)

// String names the kind for reports and test failures.
func (k Kind) String() string {
	switch k {
	case KindHit:
		return "hit"
	case KindMiss:
		return "miss"
	case KindInvalid:
		return "invalid"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Mix is a payload composition in percent. The three shares must sum
// to 100.
type Mix struct {
	HitPct     int
	MissPct    int
	InvalidPct int
}

// ParseMix parses a -mix flag value like "hit=60,miss=30,invalid=10".
// Omitted components default to 0; the shares must sum to 100.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("bad mix component %q (want name=percent)", part)
		}
		pct, err := strconv.Atoi(val)
		if err != nil || pct < 0 || pct > 100 {
			return Mix{}, fmt.Errorf("bad mix percentage %q for %q", val, name)
		}
		switch name {
		case "hit":
			m.HitPct = pct
		case "miss":
			m.MissPct = pct
		case "invalid":
			m.InvalidPct = pct
		default:
			return Mix{}, fmt.Errorf("unknown mix component %q (want hit, miss or invalid)", name)
		}
	}
	if sum := m.HitPct + m.MissPct + m.InvalidPct; sum != 100 {
		return Mix{}, fmt.Errorf("mix percentages sum to %d, want 100", sum)
	}
	return m, nil
}

// String renders the mix in ParseMix's format.
func (m Mix) String() string {
	return fmt.Sprintf("hit=%d,miss=%d,invalid=%d", m.HitPct, m.MissPct, m.InvalidPct)
}

// PayloadSet is the fully materialized request sequence of one run:
// the kind, the pre-encoded body and the expected HTTP status of
// request i. Everything is built before the run starts, so the hot
// send loop never marshals JSON, and the whole sequence is a pure
// function of (base, mix, n, seed) — same seed, same payloads.
type PayloadSet struct {
	Kinds  []Kind
	Bodies [][]byte
	// Expect is the status a healthy unloaded daemon returns for each
	// request: 200 for hits and misses, 400 for invalids. Any other
	// reply (except a 429 shed) is a contract violation the report
	// counts as a mismatch.
	Expect []int
}

// missSeedBase offsets the per-miss SOM seeds away from the run seed
// so a miss can never collide with the fixed hit payload's cache key.
const missSeedBase = 1 << 32

// BuildPayloads assigns each of the n requests a kind (deterministic
// seeded draw, proportions per mix) and pre-encodes its body from the
// base request. The base's own Config.Seed is the hit payload's
// identity; misses get unique seeds missSeedBase+i.
func BuildPayloads(base *service.Request, mix Mix, n int, seed uint64) (*PayloadSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("load: payloads need n > 0, got %d", n)
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("load: base request invalid: %w", err)
	}
	hitBody, err := json.Marshal(base)
	if err != nil {
		return nil, err
	}
	// The invalid payload asks for a negative cut: rejected by
	// Request.Validate with a 400 before any pipeline work, like the
	// malformed traffic a deployed scorer sheds all day.
	badReq := *base
	badReq.K = -1
	invalidBody, err := json.Marshal(&badReq)
	if err != nil {
		return nil, err
	}

	ps := &PayloadSet{
		Kinds:  make([]Kind, n),
		Bodies: make([][]byte, n),
		Expect: make([]int, n),
	}
	src := rng.New(seed)
	for i := 0; i < n; i++ {
		kind := KindInvalid
		switch draw := src.Intn(100); {
		case draw < mix.HitPct:
			kind = KindHit
		case draw < mix.HitPct+mix.MissPct:
			kind = KindMiss
		}
		ps.Kinds[i] = kind
		switch kind {
		case KindHit:
			ps.Bodies[i] = hitBody
			ps.Expect[i] = http.StatusOK
		case KindMiss:
			miss := *base
			miss.Config.Seed = missSeedBase + uint64(i)
			body, err := json.Marshal(&miss)
			if err != nil {
				return nil, err
			}
			ps.Bodies[i] = body
			ps.Expect[i] = http.StatusOK
		case KindInvalid:
			ps.Bodies[i] = invalidBody
			ps.Expect[i] = http.StatusBadRequest
		}
	}
	return ps, nil
}

// Counts tallies the set per kind, for the report's config echo.
func (ps *PayloadSet) Counts() map[string]int {
	out := make(map[string]int, 3)
	for _, k := range ps.Kinds {
		out[k.String()]++
	}
	return out
}

// SyntheticBaseRequest builds a well-formed scoring request with n
// workloads and f features — two separated blobs plus a smooth score
// vector — for hermetic runs that should not depend on CSV inputs.
// The shape matches the service tests' fixture so a load run and the
// unit suite exercise the same kind of geometry.
func SyntheticBaseRequest(n, f int, seed uint64) *service.Request {
	req := &service.Request{
		Config: service.ConfigJSON{Seed: seed},
		Scores: map[string][]float64{"scores": make([]float64, n)},
	}
	for i := 0; i < n; i++ {
		req.Table.Workloads = append(req.Table.Workloads, fmt.Sprintf("wl%02d", i))
		row := make([]float64, f)
		for j := 0; j < f; j++ {
			base := 1.0
			if i >= n/2 {
				base = 9.0
			}
			row[j] = base + 0.1*float64(i) + 0.01*float64(j*i)
		}
		req.Table.Rows = append(req.Table.Rows, row)
		req.Scores["scores"][i] = 1.0 + 0.25*float64(i)
	}
	for j := 0; j < f; j++ {
		req.Table.Features = append(req.Table.Features, fmt.Sprintf("feat%d", j))
	}
	return req
}

// BaseRequestFromCSV loads the same workload,score + characterization
// CSV pair the batch CLI and hmeansctl take and assembles the base
// scoring request — so the load gate drives the daemon with the
// paper's real 13-workload case study, not a synthetic stand-in.
func BaseRequestFromCSV(scoresPath, charsPath, kind string, seed uint64) (*service.Request, error) {
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
	rows, err := m.RowsFor(scores.Workloads)
	if err != nil {
		return nil, err
	}
	return &service.Request{
		Table: service.TableJSON{
			Workloads: scores.Workloads,
			Features:  m.Features,
			Rows:      rows,
		},
		Scores: map[string][]float64{"scores": scores.Values},
		Config: service.ConfigJSON{Kind: kind, Seed: seed},
	}, nil
}
