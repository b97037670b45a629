package main

import (
	"recycle/internal/telemetry"
)

// metric is one reported name and its unit; BENCHMARK.json lists the
// same names.
type metric struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload measures
// every one of them (see README.md for what each means per workload).
// Walk latency is reported per layer instead: the soak's only latency
// source is a histogram with factor-4 buckets, and in the closed loops
// mean latency is the window over delivered_pps (Little's law), which
// is gated here.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"delivered_pps", "1/s"},
	{"cpu_us_per_pkt", "us"},
	{"peak_heap_mb", "MB"},
}

// perLayer is the traced run's set, named after the modules measured.
var perLayer = []metric{
	{"setup.topology_ms", "ms"},
	{"setup.embed_ms", "ms"},
	{"setup.protocol_ms", "ms"},
	{"setup.compile_ms", "ms"},
	{"setup.recompiler_ms", "ms"},
	{"fib.mem_bytes", "bytes"},
	{"traffic.ns_per_pkt", "ns"},
	{"engine.submit_ns_per_batch", "ns"},
	{"engine.submit_refused", "count"},
	{"engine.handoff_us_p99", "us"},
	{"fib.decide_ns_per_decision", "ns"},
	{"fib.slowpath_frac", "fraction"},
	{"walk.hops_mean", "hops"},
	{"walk.p50_us", "us"},
	{"walk.p99_us", "us"},
	{"egress.transmit_ns_per_pkt", "ns"},
	{"egress.queue_wait_us_p99", "us"},
	{"egress.drop_frac", "fraction"},
	{"recompile.weight_ms_p50", "ms"},
	{"recompile.weight_ms_p99", "ms"},
	{"recompile.structural_ms_p99", "ms"},
	{"recompile.dirty_dests_per_edit", "count"},
	{"repair.trees_per_edit", "count"},
	{"repair.full_fallback", "count"},
	{"swap.apply_delta_us_p99", "us"},
	{"swap.setlink_us_p99", "us"},
	{"engine.swap_barrier_us_p99", "us"},
	{"edits_per_s", "1/s"},
	{"swap_p50_ms", "ms"},
	{"swap_p99_ms", "ms"},
	{"churn.drain_ms_p99", "ms"},
	{"soak.calendar_lag_s", "s"},
	{"soak.decide_ns_per_pkt", "ns"},
	{"soak.pump_ns_per_pkt", "ns"},
	{"soak.transient", "count"},
	{"certify.walk_ns", "ns"},
	{"certify.search_frac", "fraction"},
	{"certify.sets", "count"},
	{"certify.walks", "count"},
	{"certify.pruned", "count"},
	{"certify_walks_per_s", "1/s"},
	{"driver.ns_per_pkt", "ns"},
	{"driver.busy_frac", "fraction"},
	{"referee.judged_frac", "fraction"},
	{"referee.generations", "count"},
	{"loss_frac", "fraction"},
	{"go.alloc_bytes_per_pkt", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"budget.unattributed_ns_per_pkt", "ns"},
	{"trace.overhead_frac", "fraction"},
}

func unitOf(set []metric, name string) string {
	for _, m := range set {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapQuantile interpolates the q-quantile of a registry histogram
// linearly inside its bucket (the registry's own Quantile returns bucket
// edges, which would read the same on every run).
func snapQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := 0.0, 0.0
			switch {
			case i == 0:
				hi = float64(h.Bounds[0])
			case i < len(h.Bounds):
				lo, hi = float64(h.Bounds[i-1]), float64(h.Bounds[i])
			default:
				// Overflow bucket: the last edge is a lower bound.
				return float64(h.Bounds[len(h.Bounds)-1])
			}
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}
