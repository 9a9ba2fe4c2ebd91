package main

import "github.com/dessertlab/certify/internal/core"

// layerMetrics turns the traced run's spans into per-layer metrics: the
// mean self time of each layer's spans. Counts and ratios the workload
// measured itself are already in b.metrics and are kept.
func (b *bench) layerMetrics() {
	b.tr.finish()
	st := b.tr.selfStats()
	spanMean := map[string]struct {
		span  string
		scale float64
	}{
		"core.restore_us":      {"core.restore", 1e3},
		"core.inject_setup_us": {"core.inject_setup", 1e3},
		"core.classify_us":     {"core.classify", 1e3},
		"core.put_us":          {"core.put", 1e3},
		"sim.run_ms":           {"sim.run", 1e6},
		"dist.encode_us":       {"dist.encode", 1e3},
		"dist.close_ms":        {"dist.close", 1e6},
		"dist.merge_ms":        {"dist.merge", 1e6},
		"dist.open_ms":         {"dist.open", 1e6},
		"dist.raw_run_us":      {"dist.raw_run", 1e3},
		"serve.submit_ms":      {"serve.submit", 1e6},
		"serve.cache_hit_ms":   {"serve.cache_hit", 1e6},
		"serve.run_read_ms":    {"serve.run_read", 1e6},
		"serve.artefact_ms":    {"serve.artefact", 1e6},
	}
	for name, s := range spanMean {
		b.metrics[name] = metric{st[s.span].meanNS() / s.scale, unitOf(name)}
	}
	// The hash is folded on append, so its cost outside Machine.Run is the
	// catch-up when folding is switched on plus the final read.
	b.metrics["sim.trace_hash_ms"] = metric{(st["sim.trace_hash_catchup"].meanNS() + st["sim.trace_hash"].meanNS()) / 1e6, "ms"}
}

// runLayerMetrics records the per-run counts and the trace bookkeeping.
// The counts are taken over the first round of traced runs, which the seed
// fixes, so they repeat exactly for a seed; the times are taken over every
// traced run. untracedRunNS and tracedRunNS are the worker time per run of
// the untraced and the traced passes over the same inputs.
func (b *bench) runLayerMetrics(first, runs []*replicaRun, untracedRunNS, tracedRunNS float64) {
	if len(runs) == 0 {
		return
	}
	var records, hooks, injections, firstEvents float64
	for _, r := range first {
		firstEvents += float64(r.counts.events)
		records += float64(r.counts.records)
		hooks += float64(r.counts.hookCalls)
		injections += float64(len(r.res.Injections))
	}
	nf := float64(max(len(first), 1))
	b.metrics["sim.events_per_run"] = metric{firstEvents / nf, "count"}
	b.metrics["sim.trace_records_per_run"] = metric{records / nf, "count"}
	b.metrics["jailhouse.hook_calls_per_run"] = metric{hooks / nf, "count"}
	b.metrics["jailhouse.injections_per_run"] = metric{injections / nf, "count"}

	var events float64
	for _, r := range runs {
		events += float64(r.counts.events)
	}
	n := float64(len(runs))
	b.tr.finish()
	st := b.tr.selfStats()
	if events > 0 {
		b.metrics["sim.ns_per_event"] = metric{float64(st["sim.run"].selfNS) / events, "ns"}
	}
	phases := mean(b.tr.runPhaseSelf())
	if untracedRunNS > 0 {
		b.metrics["trace.coverage_pct"] = metric{100 * phases / untracedRunNS, "%"}
		b.metrics["trace.overhead_pct"] = metric{100 * (tracedRunNS/untracedRunNS - 1), "%"}
	}
	b.report["traced_runs"] = metric{n, "count"}
	b.report["counted_runs"] = metric{nf, "count"}
	b.report["untraced_run_ms"] = metric{untracedRunNS / 1e6, "ms"}
	b.report["traced_run_ms"] = metric{tracedRunNS / 1e6, "ms"}
}

// sameAggregate checks that the untraced and the traced pass over the
// same inputs reached the same distribution and injection total.
func (b *bench) sameAggregate(untraced, traced *core.CampaignResult) {
	ok := untraced.Total() == traced.Total() && untraced.InjectionsTotal() == traced.InjectionsTotal()
	for _, o := range core.AllOutcomes() {
		ok = ok && untraced.Count(o) == traced.Count(o)
	}
	b.check(ok, "%s: untraced %v/%d injections, traced %v/%d", untraced.Plan,
		distributionOf(untraced), untraced.InjectionsTotal(), distributionOf(traced), traced.InjectionsTotal())
}

func unitOf(name string) string {
	for _, m := range append(endToEnd, perLayer...) {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
