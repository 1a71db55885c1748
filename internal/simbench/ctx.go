package simbench

import (
	"context"
	"errors"
	"fmt"

	"hmeans/internal/obs"
	"hmeans/internal/rng"
)

// MeasuredSpeedupsCtx is MeasuredSpeedups with cooperative
// cancellation: the context is checked between per-workload
// campaigns, so a cancel or deadline stops the sweep at the next
// workload boundary. A context that never fires is bit-identical to
// MeasuredSpeedups.
func MeasuredSpeedupsCtx(ctx context.Context, ws []Workload, target, ref Machine, runs int, seed uint64) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(ws) == 0 {
		return nil, errors.New("simbench: no workloads")
	}
	o := obs.Default()
	sp := o.StartSpan("simbench.campaign", obs.KV("workloads", len(ws)),
		obs.KV("runs", runs), obs.KV("target", target.Name), obs.KV("reference", ref.Name))
	defer sp.End()
	if o.Active() {
		// Each workload runs `runs` times on both machines.
		o.Metrics().Counter("simbench.campaigns").Add(1)
		o.Metrics().Counter("simbench.executions").Add(int64(2 * len(ws) * runs))
	}
	r := rng.New(seed)
	out := make([]float64, len(ws))
	for i := range ws {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("simbench: campaign cancelled at workload %d of %d: %w", i, len(ws), err)
		}
		tTarget, err := MeasureTime(&ws[i], target, runs, r)
		if err != nil {
			return nil, fmt.Errorf("simbench: measuring %s on %s: %w", ws[i].Name, target.Name, err)
		}
		tRef, err := MeasureTime(&ws[i], ref, runs, r)
		if err != nil {
			return nil, fmt.Errorf("simbench: measuring %s on %s: %w", ws[i].Name, ref.Name, err)
		}
		out[i] = tRef / tTarget
		if o.Detail() {
			sp.Event("simbench.workload", obs.KV("workload", ws[i].Name), obs.KV("speedup", out[i]))
		}
	}
	return out, nil
}
