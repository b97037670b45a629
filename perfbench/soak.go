package main

import (
	"fmt"
	"time"

	"recycle/internal/core"
	"recycle/internal/eval"
	"recycle/internal/failure"
	"recycle/internal/graph"
	"recycle/internal/telemetry"
)

// The soak workload: eval.RunSoak as a black box on grid:16x16, fed a
// fixed seeded emission schedule far above what the pump resolves, so
// the run is an overloaded open loop whose fixed work, not the schedule,
// sets the elapsed time.
//
// The failures (see soakFailures) are all that changes under the walks:
// no repair and no hot-swap lands within the soak. Either can leave walks
// already cycle-following on faces or distances that no longer lead out,
// looping them to their TTL (for repairs, the transient regime §7 of the
// paper damps), and how many it catches depends on thread timing. A swap
// interval of the whole horizon schedules none; churn covers the swaps,
// on a drained data plane.
const (
	soakTopo     = "grid:16x16"
	soakMeanUp   = 10 * time.Second // per link: about nine failures a soak
	soakMeanDown = 1000 * time.Hour // no repair within a soak
	soakFlows    = 200_000
	soakTraffic  = "poisson:rate=6" // per flow: 1.2M emissions per simulated second
	soakHorizon  = 400 * time.Millisecond
	// setup_s: the median of soakSetupBlocks blocks of soakSetupBuilds
	// builds (~1 ms each), after one untimed block.
	soakSetupBlocks = 11
	soakSetupBuilds = 64
)

// soakRun is one RunSoak call and the process CPU it took.
type soakRun struct {
	seed    int64
	res     *eval.SoakResult
	cpu     time.Duration
	steal   time.Duration
	elapsed time.Duration // RunSoak's elapsed time less the steal during it
	rt0     runtimeSample
	rt1     runtimeSample
	gcPause time.Duration
}

// soakFailures is the soak's failure process: mtbf over the links off a
// spanning tree (the first links in ID order that join the nodes), so
// that no set of failures partitions the grid. A partition's losses are
// excused, but the soak's referee judges by time windows, and under the
// pump's lag it now and then files one of them as a transient: a count
// set by thread timing, not by the program.
func soakFailures(g *graph.Graph) failure.MTBF {
	u := newUnionFind(g.NumNodes())
	var off []graph.LinkID
	for _, l := range g.Links() {
		if !u.union(int32(l.A), int32(l.B)) {
			off = append(off, l.ID)
		}
	}
	return failure.MTBF{MeanUp: soakMeanUp, MeanDown: soakMeanDown, Links: off}
}

func runSoak(st *stack, proc failure.Process, seed int64, reg *telemetry.Registry, tr *telemetry.Tracer) (*soakRun, error) {
	cfg := eval.SoakConfig{
		Panel:     eval.Panel{Seed: seed, Process: proc, Metrics: reg, Tracer: tr},
		Flows:     soakFlows,
		Duration:  soakHorizon,
		Traffic:   soakTraffic,
		SwapEvery: soakHorizon,
		Shards:    workers(),
	}
	sr := &soakRun{seed: seed, rt0: readRuntime(), gcPause: gcPauseTotal()}
	c0, s0 := cpuTime(), stealTime()
	res, err := eval.RunSoak(st.tp, cfg)
	sr.cpu, sr.steal = cpuTime()-c0, stealTime()-s0
	sr.rt1 = readRuntime()
	sr.gcPause = gcPauseTotal() - sr.gcPause
	if err != nil {
		return nil, fmt.Errorf("soak seed %d: %w", seed, err)
	}
	sr.res = res
	if sr.elapsed, err = unstolen(res.Elapsed, sr.steal); err != nil {
		return nil, fmt.Errorf("soak seed %d: %w", seed, err)
	}
	return sr, nil
}

// gate returns the soak's correctness failures.
func (sr *soakRun) gate() []string {
	r := sr.res
	var bad []string
	if !r.Pass {
		bad = append(bad, fmt.Sprintf("soak verdict FAIL: %v", r.FailReasons))
	}
	if r.Generated != r.Delivered+r.DropNoRoute+r.DropTTL {
		bad = append(bad, fmt.Sprintf("soak accounting does not close: generated %d ≠ delivered %d + no-route %d + ttl %d",
			r.Generated, r.Delivered, r.DropNoRoute, r.DropTTL))
	}
	if r.Violations+r.Transient+r.Excused != r.DropNoRoute+r.DropTTL {
		bad = append(bad, "soak referee classes do not sum to its drops")
	}
	if r.Delivered == 0 {
		bad = append(bad, "soak delivered nothing")
	}
	return bad
}

// deliveredPPS is the soak's delivered rate per second the processors
// were ours: RunSoak's elapsed time less the steal during it.
func (sr *soakRun) deliveredPPS() float64 {
	return float64(sr.res.Delivered) / sr.elapsed.Seconds()
}

func (sr *soakRun) latencyUs(q float64) float64 {
	return snapQuantile(sr.res.Aggregate.Histograms["soak.latency_ns"], q) / 1e3
}

func soakWorkload(a runArgs) (*outcome, error) {
	st, parts, setup, err := setupRepeats(soakSetupBuilds, soakSetupBlocks, soakSetupBuilds, soakTopo, core.Full, false, nil, nil)
	if err != nil {
		return nil, err
	}
	a.peak.checkpoint()
	proc := soakFailures(st.tp.Graph)
	o := &outcome{metrics: map[string]float64{}}
	// Each soak gets its own seed derived from the workload seed; the
	// run repeats them until the measured time is used.
	budget := time.Duration(a.seconds) * time.Second
	if a.trace {
		budget /= 2
	}
	var runs []*soakRun
	t0 := time.Now()
	for i := 0; len(runs) == 0 || time.Since(t0) < budget; i++ {
		sr, err := runSoak(st, proc, a.seed*64+int64(i), nil, nil)
		if err != nil {
			return nil, err
		}
		runs = append(runs, sr)
	}
	var pps, cpu, p50, p99 []float64
	for _, sr := range runs {
		r := sr.res
		o.attempted += r.Generated
		o.failed += r.Generated - r.Delivered - r.Excused
		o.failures = append(o.failures, sr.gate()...)
		pps = append(pps, sr.deliveredPPS())
		cpu = append(cpu, float64(sr.cpu)/1e3/float64(r.Delivered))
		p50 = append(p50, sr.latencyUs(0.5))
		p99 = append(p99, sr.latencyUs(0.99))
		o.line("soak seed %d: generated %d delivered %d (violations %d transient %d excused %d) in %.2fs (%.2fs stolen), delivered_pps %.0f 1/s, calendar lag %.2fs, %d link failures, %d swaps, verdict pass=%v",
			sr.seed, r.Generated, r.Delivered, r.Violations, r.Transient, r.Excused, r.Elapsed.Seconds(), sr.steal.Seconds(), sr.deliveredPPS(),
			float64(r.Aggregate.Gauge("soak.calendar_lag_ns"))/1e9, r.ScenarioEvents, r.Swaps, r.Pass)
	}
	o.line("topology %s, %d soaks of %d flows at %s for %v each, failures mtbf:up=%v,down=%v on the %d of %d links off a spanning tree; setup_s %.5f s",
		soakTopo, len(runs), soakFlows, soakTraffic, soakHorizon, soakMeanUp, soakMeanDown, len(proc.Links), st.tp.Graph.NumLinks(), setup.Seconds())
	o.line("loss_frac %.6f fraction; delivered_pps %.0f 1/s, cpu_us_per_pkt %.4f us (medians over soaks); emit-to-deliver latency from the soak's factor-4 buckets: p50 ~%.0f us, p99 ~%.0f us",
		ratio(float64(o.failed), float64(o.attempted)), median(pps), median(cpu), median(p50), median(p99))
	if !a.trace {
		o.metrics = map[string]float64{
			"setup_s":        setup.Seconds(),
			"delivered_pps":  median(pps),
			"cpu_us_per_pkt": median(cpu),
		}
		return o, nil
	}
	if len(o.failures) > 0 {
		return o, nil
	}

	// Traced pass: one soak with the registry and tracer attached.
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(traceRing)
	sr, err := runSoak(st, proc, a.seed*64, reg, tr)
	if err != nil {
		return nil, err
	}
	o.failures = append(o.failures, sr.gate()...)
	r := sr.res
	agg := r.Aggregate
	del := float64(r.Delivered)
	decideNs := float64(agg.Histograms["engine.batch_ns"].Sum)
	decided := float64(agg.Counter("engine.decided"))
	slow := float64(agg.Counter("engine.event.detect") + agg.Counter("engine.event.continue") +
		agg.Counter("engine.event.resume") + agg.Counter("engine.drop.no-route"))
	sent := float64(agg.Counter("tx.sent"))
	drops := float64(agg.Counter("tx.drop.queue-full") + agg.Counter("tx.drop.link-down") + agg.Counter("tx.drop.stale-dart"))
	cpuNs := float64(sr.cpu) / del
	var pumpWall time.Duration
	for _, s := range tr.SpanSnapshot().ByName("soak.pump") {
		pumpWall += s.Dur
	}
	gcCPU := float64(sr.rt1.gcCPU - sr.rt0.gcCPU)
	o.metrics = map[string]float64{
		"setup.topology_ms":          parts.topology.Seconds() * 1e3,
		"setup.embed_ms":             parts.embed.Seconds() * 1e3,
		"fib.decide_ns_per_decision": ratio(decideNs, decided),
		"fib.slowpath_frac":          ratio(slow, decided),
		"fib.mem_bytes":              float64(agg.Gauge("fib.mem.bytes")),
		"walk.hops_mean":             agg.Histograms["soak.hops"].Mean(),
		"egress.queue_wait_us_p99":   snapQuantile(agg.Histograms["tx.queue_wait_ns"], 0.99) / 1e3,
		"egress.drop_frac":           ratio(drops, sent+drops),
		"soak.calendar_lag_s":        float64(agg.Gauge("soak.calendar_lag_ns")) / 1e9,
		"soak.decide_ns_per_pkt":     decideNs / del,
		"soak.pump_ns_per_pkt":       cpuNs - decideNs/del,
		"soak.transient":             float64(r.Transient),
		"loss_frac":                  ratio(float64(r.Generated-r.Delivered-r.Excused), float64(r.Generated)),
		"go.alloc_bytes_per_pkt":     float64(sr.rt1.allocBytes-sr.rt0.allocBytes) / del,
		"go.gc_cycles":               float64(sr.rt1.gcCycles - sr.rt0.gcCycles),
		"go.gc_pause_ms":             sr.gcPause.Seconds() * 1e3,
		// The pump goroutine is busy for its whole span under overload;
		// what the engine decide, the pump and the GC do not cover is
		// egress, worker idling, the control plane and the scheduler.
		"budget.unattributed_ns_per_pkt": cpuNs - (decideNs+float64(pumpWall)+gcCPU)/del,
		"trace.overhead_frac":            ratio(cpuNs/1e3, median(cpu)) - 1,
	}
	o.line("traced soak: decide %.0f ns/pkt, pump wall %.0f ns/pkt, gc %.0f ns/pkt of %.0f ns/pkt CPU",
		decideNs/del, float64(pumpWall)/del, gcCPU/del, cpuNs)
	if err := writeTrace(a, tr.SpanSnapshot()); err != nil {
		o.failures = append(o.failures, err.Error())
	}
	return o, nil
}
