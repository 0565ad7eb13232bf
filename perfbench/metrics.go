package main

import (
	"math"
	"sort"
)

// metric names one reported figure. For a per-layer metric, Moves and On
// record which end-to-end metric a change in this layer should move and on
// which workloads; on every other workload the prediction is no change.
type metric struct {
	Name   string
	Unit   string
	Better string
	Moves  string
	On     string
}

// endToEnd are the metrics every untraced run prints, on every workload.
// An op is the workload's unit of user-visible work.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_s.p50", Unit: "s", Better: "lower"},
	{Name: "op_s.p90", Unit: "s", Better: "lower"},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the metrics every traced run prints. Seconds are the median
// over traced ops, counts the mean per traced op, ratios are taken over the
// sums of the traced ops. A layer a workload does not use reads 0.
var perLayer = []metric{
	{"lang.parse_s", "s", "lower", "op_s.p50", "plan-paper"},
	{"core.compile_s", "s", "lower", "op_s.p50, ops_per_s", "plan-paper"},
	{"setup.compile_s", "s", "lower", "setup_s", "gnmf-tcp, ae-tcp"},
	{"opt.search_calls", "count", "lower", "op_s.p50", "plan-paper"},
	{"cfg.generate_calls", "count", "lower", "op_s.p90", "serve-sim (misses), plan-paper"},
	{"core.simulate_s", "s", "lower", "ops_per_s", "plan-paper"},
	{"core.execute_s", "s", "lower", "op_s.p50", "gnmf-tcp, ae-tcp"},
	{"cost.pred_s", "s", "lower", "yardstick next to core.execute_s", "gnmf-tcp, ae-tcp"},
	{"cost.pred_ratio", "ratio", "lower", "yardstick", "gnmf-tcp, ae-tcp"},
	{"rt.stages", "count", "lower", "op_s.p50", "ae-tcp"},
	{"rt.tasks", "count", "lower", "op_s.p50", "ae-tcp"},
	{"rt.wire_bytes", "bytes", "lower", "op_s.p50", "gnmf-tcp"},
	{"rt.extra_wire_bytes", "bytes", "lower", "op_s.p50", "ae-tcp (most), gnmf-tcp"},
	{"rt.fetch_wait_s", "s", "lower", "op_s.p50", "gnmf-tcp, ae-tcp"},
	{"rt.wire_mb_per_s", "MB/s", "higher", "op_s.p50", "gnmf-tcp"},
	{"rt.lane_idle_s", "s", "lower", "op_s.p50", "ae-tcp"},
	{"rt.steal_tasks", "count", "lower", "op_s.p90", "gnmf-tcp"},
	{"rt.peak_task_mem_bytes", "bytes", "lower", "mem_peak_mb", "gnmf-tcp"},
	{"exec.compute_s", "s", "lower", "op_s.p50", "gnmf-tcp"},
	{"exec.flops", "count", "lower", "none: changes only with the plan", "gnmf-tcp, ae-tcp, serve-sim"},
	{"exec.gflops", "GFLOP/s", "higher", "op_s.p50", "gnmf-tcp, serve-sim"},
	{"blockcache.hit_ratio", "ratio", "higher", "op_s.p50", "gnmf-tcp"},
	{"blockcache.saved_bytes", "bytes", "higher", "op_s.p50", "gnmf-tcp"},
	{"prefetch.blocks", "count", "higher", "op_s.p90", "gnmf-tcp"},
	{"prefetch.overlap_ratio", "ratio", "higher", "op_s.p50", "gnmf-tcp"},
	{"block.update_s", "s", "lower", "op_s.p50", "ae-tcp"},
	{"serve.queue_s", "s", "lower", "op_s.p90", "serve-sim"},
	{"serve.exec_s", "s", "lower", "op_s.p50", "serve-sim"},
	{"serve.rt_wall_s", "s", "lower", "op_s.p50", "serve-sim"},
	{"serve.front_s", "s", "lower", "op_s.p50", "serve-sim"},
	{"serve.rejects", "count", "lower", "ok_ratio", "serve-sim"},
	{"plancache.hit_ratio", "ratio", "higher", "op_s.p50", "serve-sim"},
	{"sched.fairness", "ratio", "higher", "op_s.p90", "serve-sim"},
	{"trace.overhead_s", "s", "lower", "none: traced minus untraced op_s.p50", "all"},
}

// opSample is one op of the timed section.
type opSample struct {
	seconds float64
	ok      bool
	// traced marks an op run with spans; layer holds its per-layer raw
	// values (span seconds and counter differences).
	traced bool
	layer  map[string]float64
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// latencies returns the op latencies of the samples that match traced.
func latencies(ops []opSample, traced bool) []float64 {
	var out []float64
	for _, o := range ops {
		if o.ok && o.traced == traced {
			out = append(out, o.seconds)
		}
	}
	return out
}

// layerStats folds the traced ops' raw layer values: medians of the keys
// ending in "_s", means of the rest, and sums for ratios.
type layerStats struct {
	ops []map[string]float64
}

func newLayerStats(ops []opSample) *layerStats {
	ls := &layerStats{}
	for _, o := range ops {
		if o.traced && o.ok {
			ls.ops = append(ls.ops, o.layer)
		}
	}
	return ls
}

// median is the median of key over the traced ops that recorded it.
func (ls *layerStats) median(key string) float64 {
	var xs []float64
	for _, m := range ls.ops {
		if v, ok := m[key]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// mean is the mean of key per traced op (ops without it count as 0).
func (ls *layerStats) mean(key string) float64 {
	if len(ls.ops) == 0 {
		return 0
	}
	return ls.sum(key) / float64(len(ls.ops))
}

func (ls *layerStats) sum(key string) float64 {
	var s float64
	for _, m := range ls.ops {
		s += m[key]
	}
	return s
}

// ratio is sum(num)/sum(den), 0 when the denominator is 0.
func (ls *layerStats) ratio(num, den string) float64 {
	return safeDiv(ls.sum(num), ls.sum(den))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes every per-layer metric from the traced ops. Keys of
// the raw op maps are the metric names for the plain medians and means, and
// the helper keys below for the ratios. extra carries run-level values
// (set-up compile time, plan-cache and fairness figures) that no single op
// owns.
func layerMetrics(ops []opSample, extra map[string]float64) map[string]float64 {
	ls := newLayerStats(ops)
	out := map[string]float64{}
	for _, m := range perLayer {
		switch m.Unit {
		case "s":
			out[m.Name] = ls.median(m.Name)
		case "count", "bytes":
			out[m.Name] = ls.mean(m.Name)
		}
	}
	out["cost.pred_ratio"] = safeDiv(out["core.execute_s"], out["cost.pred_s"])
	out["rt.wire_mb_per_s"] = ls.ratio("wire_total_bytes", "wire_seconds") / 1e6
	out["exec.gflops"] = ls.ratio("exec.flops", "compute_sum_s") / 1e9
	out["blockcache.hit_ratio"] = ls.ratio("cache_hits", "cache_lookups")
	out["prefetch.overlap_ratio"] = ls.ratio("prefetch_seconds", "wire_seconds")
	traced := latencies(ops, true)
	untraced := latencies(ops, false)
	if len(traced) > 0 && len(untraced) > 0 {
		out["trace.overhead_s"] = median(traced) - median(untraced)
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}
