package eval

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// Churn quantifies the topology-churn comparison for one topology: what
// a planned single-link weight change costs through a full recompile
// (routing tables + quantiser + protocol + FIB from scratch — today's
// control-plane stall) versus a delta recompile (only the affected
// destination columns repaired).
type Churn struct {
	Topology string
	Nodes    int
	Links    int
	// Edits is how many random single-link weight edits were timed.
	Edits int
	// FullMedian and DeltaMedian are per-edit recompile latencies.
	FullMedian  time.Duration
	DeltaMedian time.Duration
	// Speedup is FullMedian / DeltaMedian.
	Speedup float64
	// DirtyMean is the mean affected-destination count per edit, out of
	// Nodes destination trees.
	DirtyMean float64
}

// ChurnConfig parameterises the churn comparison. The embedded Panel's
// Topologies, Seed, Metrics and Tracer are consumed; its
// failure-process fields are ignored (churn has no failure dimension).
// A shared Metrics registry accumulates the full path's compile-phase
// latency histogram, and a Tracer receives every compile's and every
// delta Apply's span tree.
type ChurnConfig struct {
	Panel
	// Edits is how many random single-link weight edits to time per
	// topology (default 24).
	Edits int
}

func (c *ChurnConfig) withDefaults() ChurnConfig {
	out := *c
	out.Panel = out.Panel.withDefaults("")
	if out.Edits == 0 {
		out.Edits = 24
	}
	return out
}

// MeasureChurn times full-vs-delta recompilation over a sequence of
// random single-link weight edits (deterministic per cfg.Seed). Every
// delta result is the bit-identical FIB the differential harness pins,
// so the two columns are directly comparable.
func MeasureChurn(tp topo.Topology, cfg ChurnConfig) (Churn, error) {
	eff := cfg.withDefaults()
	edits, seed := eff.Edits, eff.Seed
	g := tp.Graph
	c := Churn{Topology: tp.Name, Nodes: g.NumNodes(), Links: g.NumLinks(), Edits: edits}
	p, err := Protocol(tp)
	if err != nil {
		return c, err
	}
	rec, err := dataplane.NewRecompiler(p, nil, nil)
	if err != nil {
		return c, err
	}
	rec.SetTracer(eff.Tracer)
	if eff.Metrics != nil {
		rec.Register(eff.Metrics)
	}

	rng := rand.New(rand.NewSource(seed))
	plan := make([]graph.Edit, edits)
	for i := range plan {
		l := graph.LinkID(rng.Intn(g.NumLinks()))
		w := g.Weight(l) * (0.4 + 1.2*rng.Float64())
		plan[i] = graph.SetWeight(l, w)
	}

	fullTimes := make([]time.Duration, 0, edits)
	deltaTimes := make([]time.Duration, 0, edits)
	dirty := 0
	fullSys := p.System()
	for _, e := range plan {
		nextG, _, err := graph.ApplyEdit(rec.Graph(), e)
		if err != nil {
			return c, err
		}
		// Full path: what a topology change costs without the recompiler
		// — rebuild the rotation system (same link orders), every routing
		// tree, the whole quantiser and the whole FIB.
		start := time.Now()
		orders := make([][]graph.LinkID, nextG.NumNodes())
		for v := 0; v < nextG.NumNodes(); v++ {
			orders[v] = fullSys.LinkOrder(graph.NodeID(v))
		}
		if fullSys, err = rotation.FromLinkOrders(nextG, orders); err != nil {
			return c, err
		}
		fullTbl := route.Build(nextG, route.HopCount)
		fullQuant := core.BuildQuantiser(fullTbl)
		fullP, err := core.New(nextG, fullSys, fullTbl, core.Config{Variant: core.Full})
		if err == nil {
			_, err = dataplane.CompileWithOptions(fullP, fullQuant,
				dataplane.CompileOptions{Tracer: eff.Tracer, Metrics: eff.Metrics})
		}
		if err != nil {
			return c, err
		}
		fullTimes = append(fullTimes, time.Since(start))

		// Delta path: the recompiler's Apply, producing the identical FIB.
		start = time.Now()
		d, err := rec.Apply(e)
		if err != nil {
			return c, err
		}
		deltaTimes = append(deltaTimes, time.Since(start))
		dirty += len(d.Dirty)
	}
	c.FullMedian = median(fullTimes)
	c.DeltaMedian = median(deltaTimes)
	if c.DeltaMedian > 0 {
		c.Speedup = float64(c.FullMedian) / float64(c.DeltaMedian)
	}
	c.DirtyMean = float64(dirty) / float64(edits)
	return c, nil
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// WriteChurnReport renders the full-vs-delta recompile comparison over
// the config's topology panel — the "Topology churn" table in README.md
// and the panel behind prsim churn — followed by the per-stage compile
// latency distribution (p50/p99) the runs accumulated.
func WriteChurnReport(w io.Writer, cfg ChurnConfig) error {
	fmt.Fprintf(w, "%-10s %-5s %-5s | %-10s %-10s %-8s | %-9s\n",
		"topology", "nodes", "links", "full", "delta", "speedup", "dirty/dst")
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	base := cfg.Metrics.Snapshot()
	panel, err := cfg.Panel.topologies()
	if err != nil {
		return err
	}
	for _, tp := range panel {
		c, err := MeasureChurn(tp, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %-5d %-5d | %-10v %-10v %-8.1f | %5.1f/%-3d\n",
			c.Topology, c.Nodes, c.Links,
			c.FullMedian.Round(time.Microsecond), c.DeltaMedian.Round(time.Microsecond),
			c.Speedup, c.DirtyMean, c.Nodes)
	}
	writeStageLatencies(w, cfg.Metrics.Snapshot().Sub(base))
	return nil
}
