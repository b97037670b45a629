package main

import (
	"fmt"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/embedding"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// stack is the forwarding state a workload is built from, in the order
// the program builds it: topology → embedding → routing + protocol →
// compiled FIB → incremental recompiler.
type stack struct {
	tp   topo.Topology
	prot *core.Protocol
	fib  *dataplane.FIB
	rec  *dataplane.Recompiler
}

// setupTimes is one build's wall time per layer.
type setupTimes struct {
	topology, embed, protocol, compile, recompiler time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.topology + s.embed + s.protocol + s.compile + s.recompiler
}

// buildStack builds the workload's forwarding state from a topology spec
// through the program's public constructors, timing each layer: the
// topology and its embedding only (what soak and certify are handed), or
// with full set also the protocol, FIB and recompiler (forward, churn).
// The tracer (nil when untraced) gets one span per layer, and the
// compile call gets the registry for its own phase metrics.
func buildStack(spec string, variant core.Variant, full bool, tr *telemetry.Tracer, reg *telemetry.Registry) (*stack, setupTimes, error) {
	var st stack
	var t setupTimes
	root := tr.Start("bench.setup", 0)
	defer root.End()
	step := func(name string, d *time.Duration, fn func() error) error {
		sp := tr.Start(name, root.ID())
		t0 := time.Now()
		err := fn()
		*d = time.Since(t0)
		sp.End()
		return err
	}
	if err := step("bench.setup.topology", &t.topology, func() (err error) {
		st.tp, err = topo.Generated(spec)
		return err
	}); err != nil {
		return nil, t, err
	}
	if err := step("bench.setup.embed", &t.embed, func() error {
		sys, err := (embedding.Auto{Seed: 1}).Embed(st.tp.Graph)
		if err != nil {
			return fmt.Errorf("embed %s: %w", spec, err)
		}
		if sys.Genus() != 0 {
			return fmt.Errorf("embed %s: genus %d, want 0", spec, sys.Genus())
		}
		st.tp.Embedding = sys
		return nil
	}); err != nil {
		return nil, t, err
	}
	if !full {
		return &st, t, nil
	}
	g := st.tp.Graph
	if err := step("bench.setup.protocol", &t.protocol, func() (err error) {
		st.prot, err = core.New(g, st.tp.Embedding, route.Build(g, route.HopCount), core.Config{Variant: variant})
		return err
	}); err != nil {
		return nil, t, err
	}
	if err := step("bench.setup.compile", &t.compile, func() (err error) {
		st.fib, err = dataplane.CompileWithOptions(st.prot, nil, dataplane.CompileOptions{Tracer: tr, TraceParent: root.ID(), Metrics: reg})
		return err
	}); err != nil {
		return nil, t, err
	}
	if err := step("bench.setup.recompiler", &t.recompiler, func() (err error) {
		st.rec, err = dataplane.NewRecompiler(st.prot, nil, st.fib)
		return err
	}); err != nil {
		return nil, t, err
	}
	return &st, t, nil
}

// setupRepeats builds the stack warm times untimed, then blocks × perBlock
// times timed, and keeps the last build; the returned times are per-build
// medians over the blocks. Each block of perBlock builds is timed as one,
// so that a sub-millisecond set-up is measured over tens of milliseconds
// rather than at the resolution of the clock, the collector and the
// hypervisor's steal accounting; the median over blocks makes setup_s a
// steady figure, so work moved into set-up shows up in it reliably. The
// untimed builds let the process reach its steady state (a grown heap,
// faulted-in pages) first. The total leaves out time the hypervisor gave
// to other guests (stealTime), as the throughput figures do.
func setupRepeats(warm, blocks, perBlock int, spec string, variant core.Variant, full bool, tr *telemetry.Tracer, reg *telemetry.Registry) (*stack, setupTimes, time.Duration, error) {
	for i := 0; i < warm; i++ {
		if _, _, err := buildStack(spec, variant, full, nil, nil); err != nil {
			return nil, setupTimes{}, 0, err
		}
	}
	var (
		st    *stack
		parts [5][]time.Duration
		tot   []time.Duration
	)
	for b := 0; b < blocks; b++ {
		var sum setupTimes
		steal, t0 := stealTime(), time.Now()
		for i := 0; i < perBlock; i++ {
			// Only the kept build reports into the registry, so the
			// compile metrics describe one FIB.
			var r *telemetry.Registry
			if b == blocks-1 && i == perBlock-1 {
				r = reg
			}
			s, t, err := buildStack(spec, variant, full, tr, r)
			if err != nil {
				return nil, setupTimes{}, 0, err
			}
			st = s
			sum.topology += t.topology
			sum.embed += t.embed
			sum.protocol += t.protocol
			sum.compile += t.compile
			sum.recompiler += t.recompiler
		}
		d, err := unstolen(time.Since(t0), stealTime()-steal)
		if err != nil {
			return nil, setupTimes{}, 0, fmt.Errorf("set-up: %w", err)
		}
		for j, d := range []time.Duration{sum.topology, sum.embed, sum.protocol, sum.compile, sum.recompiler} {
			parts[j] = append(parts[j], d/time.Duration(perBlock))
		}
		tot = append(tot, d/time.Duration(perBlock))
	}
	med := setupTimes{
		topology: medianDur(parts[0]), embed: medianDur(parts[1]), protocol: medianDur(parts[2]),
		compile: medianDur(parts[3]), recompiler: medianDur(parts[4]),
	}
	return st, med, medianDur(tot), nil
}
