package main

import (
	"fmt"
	"time"

	"recycle/internal/certify"
	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/route"
	"recycle/internal/telemetry"
)

// The certify workload: exhaustive k=2 link-failure certification of
// compiled PR on grid:8x8 with certify.Certify and certify.NewPRWalker —
// what eval.RunCertify does. It is the FIB's offline consumer: one
// FIB.Decide per hop and no engine. Its work is exact, so every
// certification in a run must report the same counts.
const (
	certifyTopo = "grid:8x8"
	certifyK    = 2
	// setup_s: the median of certifySetupBlocks blocks of
	// certifySetupBuilds builds (~0.2 ms each), after one untimed block.
	certifySetupBlocks = 11
	certifySetupBuilds = 256
	// The traced pass times every walk and keeps one walk in
	// certifySample per destination for the latency percentiles.
	certifySample = 64
)

// timedWalker wraps the walker under certification in the traced pass.
// Each destination's sweep runs on one goroutine at a time, so
// per-destination state needs no synchronisation.
type timedWalker struct {
	certify.Walker
	dst []dstTiming
}

type dstTiming struct {
	n       int
	busy    time.Duration
	samples []int32 // ns
}

func newTimedWalker(w certify.Walker, nodes int) *timedWalker {
	return &timedWalker{Walker: w, dst: make([]dstTiming, nodes)}
}

func (w *timedWalker) Walk(src, dst graph.NodeID, fs *graph.FailureSet, transcript bool) certify.Walk {
	d := &w.dst[dst]
	t0 := time.Now()
	out := w.Walker.Walk(src, dst, fs, transcript)
	ns := time.Since(t0)
	d.busy += ns
	if d.n%certifySample == 0 {
		d.samples = append(d.samples, int32(ns))
	}
	d.n++
	return out
}

func (w *timedWalker) totals() (busy time.Duration, lat *hist) {
	lat = newHist()
	for i := range w.dst {
		busy += w.dst[i].busy
		for _, s := range w.dst[i].samples {
			lat.add(int64(s))
		}
	}
	return busy, lat
}

// certRun is one certification and what it cost.
type certRun struct {
	cert              *certify.Certificate
	elapsed, cpu      time.Duration
	protocol, compile time.Duration
	fibBytes          int64
	walker            *timedWalker
	rt0, rt1          runtimeSample
}

// runCertify compiles the embedding's PR FIB and certifies it, as
// eval.RunCertify does; reconv swaps in the reconvergence baseline.
func runCertify(st *stack, reconv bool, reg *telemetry.Registry, tr *telemetry.Tracer) (*certRun, error) {
	g := st.tp.Graph
	cr := &certRun{rt0: readRuntime()}
	c0, t0, s0 := cpuTime(), time.Now(), stealTime()
	var w certify.Walker
	genus := certify.GenusUnknown
	if reconv {
		w = certify.NewReconvWalker(g)
	} else {
		prot, err := core.New(g, st.tp.Embedding, route.Build(g, route.HopCount), core.Config{Variant: core.Full})
		if err != nil {
			return nil, err
		}
		cr.protocol = time.Since(t0)
		sp := tr.Start("bench.compile", 0)
		fib, err := dataplane.CompileWithOptions(prot, nil, dataplane.CompileOptions{Tracer: tr, Metrics: reg})
		sp.End()
		if err != nil {
			return nil, err
		}
		cr.compile = time.Since(t0) - cr.protocol
		cr.fibBytes = fib.MemBytes()
		w = certify.NewPRWalker(fib)
		genus = st.tp.Embedding.Genus()
	}
	if tr != nil {
		cr.walker = newTimedWalker(w, g.NumNodes())
		w = cr.walker
	}
	sp := tr.Start("bench.certify", 0)
	cert, err := certify.Certify(g, w, certify.Config{
		K: certifyK, Label: certifyTopo, Genus: genus, Workers: workers(), Metrics: reg, Tracer: tr, TraceParent: sp.ID(),
	})
	sp.End()
	wall, steal := time.Since(t0), stealTime()-s0
	cr.cpu = cpuTime() - c0
	cr.rt1 = readRuntime()
	if err != nil {
		return nil, fmt.Errorf("certify: %w", err)
	}
	if cr.elapsed, err = unstolen(wall, steal); err != nil {
		return nil, fmt.Errorf("certify: %w", err)
	}
	cr.cert = cert
	return cr, nil
}

func (cr *certRun) delivered() uint64 {
	s := cr.cert.Stats
	return s.Walks - s.Excused - s.ViolationsFound
}

// certifyGate checks one run's certifications: each certified exactly
// at k=2 and all agreeing on the work done.
func certifyGate(runs []*certRun) []string {
	var bad []string
	first := runs[0].cert
	for i, cr := range runs {
		c := cr.cert
		if !c.Certified || !c.Complete || c.Method != "exhaustive" || c.K != certifyK {
			bad = append(bad, fmt.Sprintf("certification %d: %s", i, c.Headline()))
		}
		if c.DistinctSets != first.DistinctSets || c.Stats.Walks != first.Stats.Walks || c.Stats.Sets != first.Stats.Sets {
			bad = append(bad, fmt.Sprintf("certification %d counted %d sets / %d walks, certification 0 counted %d / %d",
				i, c.DistinctSets, c.Stats.Walks, first.DistinctSets, first.Stats.Walks))
		}
	}
	return bad
}

func certifyWorkload(a runArgs) (*outcome, error) {
	st, parts, setup, err := setupRepeats(certifySetupBuilds, certifySetupBlocks, certifySetupBuilds, certifyTopo, core.Full, false, nil, nil)
	if err != nil {
		return nil, err
	}
	a.peak.checkpoint()
	o := &outcome{metrics: map[string]float64{}}
	budget := time.Duration(a.seconds) * time.Second
	if a.trace {
		budget /= 2
	}
	// At least two certifications, so their counts can be compared.
	var runs []*certRun
	t0 := time.Now()
	for len(runs) < 2 || time.Since(t0) < budget {
		cr, err := runCertify(st, false, nil, nil)
		if err != nil {
			return nil, err
		}
		runs = append(runs, cr)
	}
	o.failures = certifyGate(runs)
	var pps, cpu []float64
	for _, cr := range runs {
		s := cr.cert.Stats
		o.attempted += s.Walks
		o.failed += s.ViolationsFound
		pps = append(pps, float64(cr.delivered())/cr.elapsed.Seconds())
		cpu = append(cpu, float64(cr.cpu)/1e3/float64(s.Walks))
		o.line("%s; %d sets, %d walks (%d delivered, %d excused) in %.2fs = certify_walks_per_s %.0f 1/s",
			cr.cert.Headline(), s.Sets, s.Walks, cr.delivered(), s.Excused, cr.elapsed.Seconds(), float64(s.Walks)/cr.elapsed.Seconds())
	}
	o.line("topology %s, %d certifications; setup_s %.5f s; delivered_pps %.0f 1/s (delivered walks), cpu_us_per_pkt %.4f us per walk; loss_frac %.6f fraction",
		certifyTopo, len(runs), setup.Seconds(), median(pps), median(cpu), ratio(float64(o.failed), float64(o.attempted)))
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

	// Traced pass: one certification with every walk timed, the search's
	// registry and span tree attached.
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(traceRing)
	cr, err := runCertify(st, false, reg, tr)
	if err != nil {
		return nil, err
	}
	o.failures = certifyGate(append(runs, cr))
	s := cr.cert.Stats
	walkBusy, lat := cr.walker.totals()
	var workers time.Duration
	for _, sp := range tr.SpanSnapshot().ByName("certify.sweep.worker") {
		workers += sp.Dur
	}
	search := workers - walkBusy
	walks := float64(s.Walks)
	cpuNs := float64(cr.cpu) / walks
	o.metrics = map[string]float64{
		"setup.topology_ms":      parts.topology.Seconds() * 1e3,
		"setup.embed_ms":         parts.embed.Seconds() * 1e3,
		"setup.protocol_ms":      cr.protocol.Seconds() * 1e3,
		"setup.compile_ms":       cr.compile.Seconds() * 1e3,
		"fib.mem_bytes":          float64(cr.fibBytes),
		"certify.walk_ns":        float64(walkBusy) / walks,
		"certify.search_frac":    ratio(float64(search), float64(workers)),
		"certify.sets":           float64(s.Sets),
		"certify.walks":          walks,
		"certify.pruned":         float64(s.PrunedUnaffected + s.PrunedDominated),
		"certify_walks_per_s":    walks / cr.elapsed.Seconds(),
		"loss_frac":              ratio(float64(s.ViolationsFound), walks),
		"go.alloc_bytes_per_pkt": float64(cr.rt1.allocBytes-cr.rt0.allocBytes) / walks,
		"go.gc_cycles":           float64(cr.rt1.gcCycles - cr.rt0.gcCycles),
		// The par workers' spans are wall time on the processors the
		// search uses; the collector's background work runs on the one
		// left free (mark assists are inside the walks). What is left is
		// the search's serial tail (minimising, certificate assembly)
		// and the scheduler.
		"budget.unattributed_ns_per_pkt": cpuNs - float64(workers+cr.rt1.gcCPU-cr.rt0.gcCPU)/walks,
		"trace.overhead_frac":            ratio(cpuNs/1e3, median(cpu)) - 1,
	}
	o.line("traced certification: walk_p50_us %.3f us, walk_p99_us %.3f us (%d sampled walks), %.0f ns per walk of %.0f ns CPU",
		lat.quantile(0.5)/1e3, lat.quantile(0.99)/1e3, lat.n, float64(walkBusy)/walks, cpuNs)
	if err := writeTrace(a, tr.SpanSnapshot()); err != nil {
		o.failures = append(o.failures, err.Error())
	}
	return o, nil
}
