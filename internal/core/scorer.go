package core

import "fmt"

// Scorer computes hierarchical means for one fixed clustering without
// per-call allocation. Construction (or Reset) validates the
// clustering once and precomputes a cluster-major gather plan; each
// Mean call then gathers the scores into a reused buffer, reduces
// every cluster with the inner mean and combines the representatives
// — allocating nothing on the happy path. This is the steady-state
// scoring kernel: one Scorer per clustering serves any number of
// score vectors and all three mean families. Sweep re-plans one per
// cut; HierarchicalMean builds one per call.
//
// Mean is read-only over the plan, but the gather buffer is shared
// scratch: a Scorer must not be used from multiple goroutines
// concurrently.
type Scorer struct {
	n, k int
	// slots[t] is the workload index whose score is gathered into
	// buf[t]; cluster l's scores occupy buf[offsets[l]:offsets[l+1]],
	// in ascending workload order — the exact value order the
	// label-scan grouping produced, so results are bit-identical.
	slots   []int
	offsets []int
	cur     []int // scratch cursors for plan construction
	buf     []float64
	reps    []float64
}

// NewScorer validates c and builds its gather plan. The clustering's
// label slice is read during construction only, not retained.
func NewScorer(c Clustering) (*Scorer, error) {
	s := &Scorer{}
	if err := s.Reset(c); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-plans the Scorer for a new clustering, reusing every
// buffer whose capacity suffices: Sweep sizes them for k = n once. The
// validation and its error messages match HierarchicalMean's
// historical label checks exactly.
func (s *Scorer) Reset(c Clustering) error {
	n, k := len(c.Labels), c.K
	for _, l := range c.Labels {
		if l < 0 || l >= k {
			return fmt.Errorf("core: label %d out of range [0,%d)", l, k)
		}
	}
	s.offsets = resize(s.offsets, k+1)
	for i := range s.offsets {
		s.offsets[i] = 0
	}
	for _, l := range c.Labels {
		s.offsets[l+1]++
	}
	for l := 0; l < k; l++ {
		if s.offsets[l+1] == 0 {
			return fmt.Errorf("core: cluster %d is empty", l)
		}
	}
	for l := 0; l < k; l++ {
		s.offsets[l+1] += s.offsets[l]
	}
	s.slots = resize(s.slots, n)
	s.cur = resize(s.cur, k)
	copy(s.cur, s.offsets[:k])
	for i, l := range c.Labels {
		s.slots[s.cur[l]] = i
		s.cur[l]++
	}
	s.buf = resize(s.buf, n)
	s.reps = resize(s.reps, k)
	s.n, s.k = n, k
	return nil
}

// Mean computes the hierarchical mean of the given family over the
// scores, partitioned by the Scorer's clustering. It is
// value-identical to HierarchicalMean with the same inputs and
// allocates nothing unless an error path formats one.
func (s *Scorer) Mean(kind MeanKind, scores []float64) (float64, error) {
	if len(scores) != s.n {
		return 0, fmt.Errorf("core: %d scores for %d workloads", len(scores), s.n)
	}
	for t, i := range s.slots {
		s.buf[t] = scores[i]
	}
	for l := 0; l < s.k; l++ {
		rep, err := kind.plain(s.buf[s.offsets[l]:s.offsets[l+1]])
		if err != nil {
			return 0, fmt.Errorf("core: inner mean of cluster %d: %w", l, err)
		}
		s.reps[l] = rep
	}
	out, err := kind.plain(s.reps)
	if err != nil {
		return 0, fmt.Errorf("core: outer mean: %w", err)
	}
	return out, nil
}

// resize returns sl with length n, reusing its backing array when the
// capacity allows and allocating a fresh one otherwise.
func resize[T int | float64](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}
