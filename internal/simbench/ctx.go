package simbench

import (
	"context"
	"errors"
	"fmt"

	"hmeans/internal/obs"
	"hmeans/internal/par"
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
	recordCampaign(o, len(ws), runs)
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

// MeasuredSpeedupsParallelCtx is MeasuredSpeedupsCtx with the
// per-workload measurement campaigns spread across `workers`
// goroutines. Each workload draws its noise from a private sub-stream
// seeded up front from the campaign seed, so the result depends only
// on (ws, seed) — identical for every worker count — but the
// individual noise draws differ from MeasuredSpeedups' single shared
// stream. Cancellation is checked between workload shards.
func MeasuredSpeedupsParallelCtx(ctx context.Context, ws []Workload, target, ref Machine, runs int, seed uint64, workers int) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(ws) == 0 {
		return nil, errors.New("simbench: no workloads")
	}
	o := obs.Default()
	sp := o.StartSpan("simbench.campaign", obs.KV("workloads", len(ws)),
		obs.KV("runs", runs), obs.KV("target", target.Name), obs.KV("reference", ref.Name),
		obs.KV("workers", par.Resolve(workers)))
	defer sp.End()
	recordCampaign(o, len(ws), runs)
	base := rng.New(seed)
	seeds := make([]uint64, len(ws))
	for i := range seeds {
		seeds[i] = base.Uint64()
	}
	out := make([]float64, len(ws))
	errs := make([]error, len(ws))
	err := par.ForCtx(ctx, workers, len(ws), func(start, end int) {
		for i := start; i < end; i++ {
			r := rng.New(seeds[i])
			tTarget, err := MeasureTime(&ws[i], target, runs, r)
			if err != nil {
				errs[i] = fmt.Errorf("simbench: measuring %s on %s: %w", ws[i].Name, target.Name, err)
				continue
			}
			tRef, err := MeasureTime(&ws[i], ref, runs, r)
			if err != nil {
				errs[i] = fmt.Errorf("simbench: measuring %s on %s: %w", ws[i].Name, ref.Name, err)
				continue
			}
			out[i] = tRef / tTarget
		}
	})
	if err != nil {
		return nil, fmt.Errorf("simbench: campaign cancelled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
