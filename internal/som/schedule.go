package som

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"hmeans/internal/lru"
)

// Training anneals the learning rate α(n) and the neighbourhood
// radius σ(n) exponentially, both monotonically decreasing as the
// paper requires: α from alpha0 and σ from half the larger grid side
// down to their floors.
const alpha0 = 0.5

// floors keep the kernel non-degenerate at the end of training: the
// radius must stay positive (σ→0 divides by zero in the kernel) and a
// zero learning rate would waste the final steps entirely.
const (
	alphaFloor = 0.01
	sigmaFloor = 0.35
)

// cutoff bounds a step's window: units farther than cutoff·σ from the
// BMU contribute a negligible kernel value and are not updated.
const cutoff = 3.0

// scheduleBytes bounds the kernel schedules one Starts table keeps:
// the 5 × 4 case-study grid's takes about 1 MB and suite-500's
// 12 × 10 grid's about 17 MB (DESIGN.md §17).
const scheduleBytes = 32 << 20

// anneal returns the value at training progress t = n/Steps ∈ [0, 1)
// that starts at v0 and decays geometrically toward floor:
// v(t) = v0 · exp(−t·lnRatio), never below floor. lnRatio must be
// ln(v0/floor); it depends on neither t nor the step, so training
// computes it once per run.
func anneal(v0, floor, lnRatio, t float64) float64 {
	if v0 <= floor {
		return floor
	}
	v := v0 * math.Exp(-t*lnRatio)
	if v < floor {
		return floor
	}
	return v
}

// kernelPlan is what a kernel schedule depends on: the grid and the
// step count. The seed, the samples and the BMUs only choose which
// entries a step reads.
type kernelPlan struct {
	rows, cols, steps        int
	sigma0, lnAlpha, lnSigma float64
}

func newKernelPlan(rows, cols, steps int) kernelPlan {
	sigma0 := float64(max(rows, cols)) / 2
	return kernelPlan{
		rows: rows, cols: cols, steps: steps, sigma0: sigma0,
		lnAlpha: math.Log(alpha0 / alphaFloor), lnSigma: math.Log(sigma0 / sigmaFloor),
	}
}

// alpha and sigma return step n's annealed learning rate and radius.
func (p kernelPlan) alpha(n int) float64 {
	return anneal(alpha0, alphaFloor, p.lnAlpha, float64(n)/float64(p.steps))
}

func (p kernelPlan) sigma(n int) float64 {
	return anneal(p.sigma0, sigmaFloor, p.lnSigma, float64(n)/float64(p.steps))
}

// key is p's key in a Starts table: the grid and the step count. σ0
// follows from the grid, and the floors and the cutoff are constants.
func (p kernelPlan) key() lru.Key {
	var k lru.Key
	binary.LittleEndian.PutUint64(k[0:], uint64(p.rows))
	binary.LittleEndian.PutUint64(k[8:], uint64(p.cols))
	binary.LittleEndian.PutUint64(k[16:], uint64(p.steps))
	return k
}

// schedule holds the kernel of a run of steps. A unit's kernel value
// depends on it only through its squared grid distance d² = dr² + dc²
// to the BMU, so a step needs one entry per distinct d² of the grid
// up to the largest its window can hold: the first slot[d²]+1 values
// of dist. A shared schedule covers every step of a plan and is never
// written after it is built, so concurrent trainings may read one. A
// training without one fills a schedule of one block of steps at a
// time, reusing its memory.
type schedule struct {
	// dist holds the grid's distinct squared distances
	// {a² + b² : 0 ≤ a < rows, 0 ≤ b < cols} in increasing order, and
	// slot[d²] is d²'s index in dist (−1 for a d² the grid lacks).
	dist, slot []int
	// first is the step that reach[0] belongs to.
	first int
	// reach[i] is step first+i's reach ⌈cutoff·σ⌉, and
	// kern[off[i]:off[i+1]] its entries: entry k is α·exp(−dist[k]/2σ²).
	reach, off []int
	kern       []float64
}

// newSchedule returns an empty schedule for p's grid: its distances
// and slots, with no step laid out.
func newSchedule(p kernelPlan) *schedule {
	s := &schedule{slot: make([]int, (p.rows-1)*(p.rows-1)+(p.cols-1)*(p.cols-1)+1)}
	distinct := 0
	for a := range p.rows {
		for b := range p.cols {
			if s.slot[a*a+b*b] == 0 {
				s.slot[a*a+b*b] = 1
				distinct++
			}
		}
	}
	s.dist = make([]int, 0, distinct)
	for d2, seen := range s.slot {
		s.slot[d2] = -1
		if seen == 1 {
			s.slot[d2] = len(s.dist)
			s.dist = append(s.dist, d2)
		}
	}
	return s
}

// bytes is s's size in a Starts table.
func (s *schedule) bytes() int {
	return 8 * (len(s.dist) + len(s.slot) + len(s.reach) + len(s.off) + len(s.kern))
}

// window returns the reach ⌈cutoff·σ⌉ of a step whose radius is
// sigma, and the number of entries the step holds. A window of reach r
// spans at most ra = min(r, rows−1) rows and ca = min(r, cols−1)
// columns on either side of its BMU, so its largest d² is ra² + ca²,
// itself one of the grid's distances.
func (s *schedule) window(p kernelPlan, sigma float64) (reach, entries int) {
	r := int(math.Ceil(cutoff * sigma))
	ra, ca := min(r, p.rows-1), min(r, p.cols-1)
	return r, s.slot[ra*ra+ca*ca] + 1
}

// size returns the number of entries steps [n0, n1) of p hold, without
// allocating. It stops after the first step that takes that number
// past limit, and returns the number so far.
func (s *schedule) size(p kernelPlan, n0, n1, limit int) int {
	entries := 0
	for n := n0; n < n1 && entries <= limit; n++ {
		_, k := s.window(p, p.sigma(n))
		entries += k
	}
	return entries
}

// reset empties s for a run of steps that starts at step first, with
// room for the reach and offsets of steps steps and for entries
// entries, reusing its memory where it has room.
func (s *schedule) reset(first, steps, entries int) {
	if cap(s.reach) < steps {
		s.reach, s.off = make([]int, 0, steps), make([]int, 0, steps+1)
	}
	if cap(s.kern) < entries {
		s.kern = make([]float64, entries)
	}
	s.first, s.reach, s.off, s.kern = first, s.reach[:0], append(s.off[:0], 0), s.kern[:entries]
}

// fill appends steps [n0, n1) of p to s, which has room for them: each
// step's reach, the offset past its entries, and its entries. An entry
// is the tests' reference expression with its operand order:
// d² = dr² + dc² is a small integer, exact in float64, so float64(d²)
// has the bits of dr*dr + dc*dc and every entry the bits of the
// per-unit kernel.
func (s *schedule) fill(p kernelPlan, n0, n1 int) {
	for n := n0; n < n1; n++ {
		alpha, sigma := p.alpha(n), p.sigma(n)
		inv2s2 := 1 / (2 * sigma * sigma)
		r, k := s.window(p, sigma)
		off := s.off[len(s.off)-1]
		kern := s.kern[off : off+k]
		for j, d2 := range s.dist[:k] {
			kern[j] = alpha * math.Exp(-float64(d2)*inv2s2)
		}
		s.reach = append(s.reach, r)
		s.off = append(s.off, off+k)
	}
}

// block makes s the schedule of steps [n0, n1) of p, reusing its
// memory, and returns the number of entries it computed: a training
// without a shared schedule calls it once every cancelCheckSteps
// steps. The reach never grows with the step, so the first block is
// the largest and later ones allocate nothing.
func (s *schedule) block(p kernelPlan, n0, n1 int) int {
	entries := s.size(p, n0, n1, math.MaxInt)
	s.reset(n0, n1-n0, entries)
	s.fill(p, n0, n1)
	return entries
}

// buildSchedule returns the schedule of every step of p, or nil when
// it would take more than scheduleBytes. It sizes the schedule before
// it allocates a step, so a plan it refuses allocates its grid's
// distances and slots alone, and sizes its steps only up to the first
// past the bound. It polls ctx once per block of cancelCheckSteps
// steps; once ctx has ended it returns ctx's error and no schedule.
func buildSchedule(ctx context.Context, p kernelPlan) (*schedule, error) {
	s := newSchedule(p)
	// Its distances, slots, reaches, offsets and entries take 8 bytes
	// each.
	limit := scheduleBytes/8 - len(s.dist) - len(s.slot) - (2*p.steps + 1)
	entries := s.size(p, 0, p.steps, limit)
	if entries > limit {
		return nil, nil
	}
	s.reset(0, p.steps, entries)
	for n := 0; n < p.steps; n += cancelCheckSteps {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("som: kernel schedule cancelled at step %d of %d: %w", n, p.steps, err)
		}
		s.fill(p, n, min(n+cancelCheckSteps, p.steps))
	}
	return s, nil
}
