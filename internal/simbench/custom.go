package simbench

import (
	"errors"
	"fmt"
)

// NewWorkload validates and builds a user-defined workload so that
// proposed suite additions can be evaluated with exactly the pipeline
// used for the built-in members ("should SPECjvm2007 also adopt these
// two kernels?" is the consortium question this library exists to
// answer quantitatively). Method domains must exist in the synthetic
// method universe.
func NewWorkload(name string, suite SourceSuite, d Demand, domains []string) (Workload, error) {
	if name == "" {
		return Workload{}, errors.New("simbench: workload needs a name")
	}
	if err := validateDemand(d); err != nil {
		return Workload{}, fmt.Errorf("simbench: workload %s: %w", name, err)
	}
	if len(domains) == 0 {
		return Workload{}, fmt.Errorf("simbench: workload %s needs at least one method domain", name)
	}
	for _, dom := range domains {
		if _, ok := methodDomains[dom]; !ok {
			return Workload{}, fmt.Errorf("simbench: workload %s references unknown method domain %q", name, dom)
		}
	}
	return Workload{
		Name:          name,
		Suite:         suite,
		Version:       "custom",
		InputSet:      "custom",
		Description:   "user-defined workload",
		Demand:        d,
		MethodDomains: append([]string(nil), domains...),
	}, nil
}

func validateDemand(d Demand) error {
	switch {
	case d.WorkGOps <= 0:
		return errors.New("WorkGOps must be positive")
	case d.FPFraction < 0 || d.FPFraction > 1:
		return errors.New("FPFraction must be in [0, 1]")
	case d.WorkingSetKB <= 0:
		return errors.New("WorkingSetKB must be positive")
	case d.FootprintMB <= 0:
		return errors.New("FootprintMB must be positive")
	case d.MemIntensity < 0 || d.AllocIntensity < 0 || d.IOIntensity < 0 ||
		d.NetIntensity < 0 || d.SyscallIntensity < 0:
		return errors.New("intensities must be non-negative")
	case d.Parallelism < 1:
		return errors.New("Parallelism must be at least 1")
	case d.CodeComplexity <= 0:
		return errors.New("CodeComplexity must be positive")
	default:
		return nil
	}
}

// ExtendSuite returns base plus the additions, rejecting duplicate
// workload names — the programmatic form of a consortium's "proposed
// adoption set".
func ExtendSuite(base []Workload, additions ...Workload) ([]Workload, error) {
	seen := make(map[string]bool, len(base)+len(additions))
	out := make([]Workload, 0, len(base)+len(additions))
	for _, w := range base {
		if seen[w.Name] {
			return nil, fmt.Errorf("simbench: duplicate workload %q in base suite", w.Name)
		}
		seen[w.Name] = true
		out = append(out, w)
	}
	for _, w := range additions {
		if seen[w.Name] {
			return nil, fmt.Errorf("simbench: workload %q already in the suite", w.Name)
		}
		seen[w.Name] = true
		out = append(out, w)
	}
	return out, nil
}
