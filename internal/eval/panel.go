package eval

import (
	"recycle/internal/core"
	"recycle/internal/embedding"
	"recycle/internal/failure"
	"recycle/internal/route"
	"recycle/internal/telemetry"
	"recycle/internal/topo"
)

// Panel is the configuration surface every eval harness shares: the
// topology panel under test, the failure process driving the runs, the
// master seed, and an optional shared metrics registry. Harness configs
// (ResilienceConfig, SoakConfig, ChurnConfig, TrafficLossConfig,
// CertifyConfig) embed it, so the same literal fields parameterise every
// harness and a CLI can bind one set of global flags to all of them.
type Panel struct {
	// Topologies is the named topology panel the report writers iterate
	// (topo.ByName grammar, e.g. "abilene", "ring:24", "rand:24@7").
	// Harnesses that run a single topology take it as an explicit
	// argument and ignore this field.
	Topologies []string
	// Spec is the failure-process specification the runs sample from
	// (failure.ParseScenario grammar). Empty selects the harness's
	// default process. Harnesses without a failure dimension (churn,
	// traffic mix) ignore it.
	Spec string
	// Process optionally supplies a pre-built failure process (e.g. a
	// scripted scenario file via failure.ParseScript); when non-nil it
	// is used verbatim and Spec only labels the report.
	Process failure.Process
	// Seed is the harness's master seed (default 1). Every derived
	// stream (scenario draws, traffic, annealing) sub-seeds from it, so
	// a fixed Seed reproduces the run bit-for-bit.
	Seed int64
	// Metrics optionally shares a live registry (e.g. one served over
	// HTTP by a prsim verb's -metrics); nil gives the harness a private one.
	// Runs subtract a base snapshot, so sharing never double-counts.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives the run's control-plane span tree
	// (compiles, hot-swaps, scenario events) and is registered as a
	// collector on the run's registry, so snapshots — and the epoch
	// timeline — carry the spans that ended inside them. Harnesses
	// tolerate nil at zero cost.
	Tracer *telemetry.Tracer
}

// withDefaults resolves the Panel's empty fields: defaultSpec fills
// Spec (a non-nil Process labels it instead), and Seed defaults to 1.
func (p Panel) withDefaults(defaultSpec string) Panel {
	if p.Spec == "" {
		if p.Process != nil {
			p.Spec = p.Process.Name()
		} else {
			p.Spec = defaultSpec
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// process resolves the Panel's failure process: Process verbatim when
// set (validated), the parsed Spec otherwise. Call after withDefaults.
func (p Panel) process() (failure.Process, error) {
	if p.Process != nil {
		if err := p.Process.Validate(); err != nil {
			return nil, err
		}
		return p.Process, nil
	}
	return failure.ParseScenario(p.Spec)
}

// topologies resolves the named panel through topo.ByName, in order.
func (p Panel) topologies() ([]topo.Topology, error) {
	out := make([]topo.Topology, 0, len(p.Topologies))
	for _, name := range p.Topologies {
		tp, err := topo.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, tp)
	}
	return out, nil
}

// Protocol builds the PR network every harness runs on: the topology's
// shipped embedding (the automatic embedder at seed 1 when it ships none),
// hop-count routes, and the Full variant. Callers compile it with their
// own options and read the embedding back through System().
func Protocol(tp topo.Topology) (*core.Protocol, error) {
	g, sys := tp.Graph, tp.Embedding
	if sys == nil {
		var err error
		if sys, err = (embedding.Auto{Seed: 1}).Embed(g); err != nil {
			return nil, err
		}
	}
	return core.New(g, sys, route.Build(g, route.HopCount), core.Config{Variant: core.Full})
}
