package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"recycle/internal/core"
)

// shortForward is the forward workload cut to a test's budget: the same
// topology, failure draw and driver, one set-up and about a second of
// traffic.
func shortForward(variant core.Variant) fwdConfig {
	cfg := forwardConfig(runArgs{workload: "forward", seed: 1}, time.Second)
	cfg.variant, cfg.warmup, cfg.reps = variant, 200*time.Millisecond, 1
	return cfg
}

func TestForwardFullPassesGates(t *testing.T) {
	res, err := runForward(shortForward(core.Full))
	if err != nil {
		t.Fatal(err)
	}
	if bad := res.gate(); len(bad) > 0 {
		t.Fatalf("Full PR failed the forward gates: %v", bad)
	}
	if res.delivered == 0 || res.judged != res.resolved {
		t.Fatalf("delivered %d, judged %d of %d: a static run judges every walk", res.delivered, res.judged, res.resolved)
	}
}

// churn lands every write but a link failure on a drained data plane, so
// no walk spans one, and walks that meet a failure re-cycle: the run
// loses no walk.
func TestChurnDrainsRepairs(t *testing.T) {
	cfg := forwardConfig(runArgs{workload: "churn", seed: 1}, 3*time.Second)
	cfg.warmup, cfg.reps = 200*time.Millisecond, 1
	res, err := runForward(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := res.gate(); len(bad) > 0 {
		t.Fatalf("churn failed its gates: %v", bad)
	}
	c := res.ctl
	if c.drains == 0 || c.structural == 0 || c.weight == 0 {
		t.Fatalf("churn made %d drained writes, %d structural, %d weight: the mix did not run", c.drains, c.structural, c.weight)
	}
	if lost := res.violations + res.transients + res.congst; lost != 0 {
		t.Fatalf("churn lost %d walks (transients %d) over %d writes", lost, res.transients, c.edits)
	}
}

// The referee must catch a scheme that loses packets: the Basic variant
// (§4.2) loops under some multi-failure draws that leave pairs
// connected, and forward's 5% draw is one.
func TestForwardBasicControlFails(t *testing.T) {
	res, err := runForward(shortForward(core.Basic))
	if err != nil {
		t.Fatal(err)
	}
	if res.violations == 0 {
		t.Fatalf("Basic PR reported no violations (delivered %d, excused %d)", res.delivered, res.excused)
	}
	bad := res.gate()
	if len(bad) == 0 || !strings.Contains(bad[0], "violations") {
		t.Fatalf("gate did not fail on %d violations: %v", res.violations, bad)
	}
}

// The certify gate must fail on a scheme with counterexamples: the
// reconvergence baseline drops packets under a single well-placed
// failure.
func TestCertifyReconvControlFails(t *testing.T) {
	st, _, _, err := setupRepeats(0, 1, 1, certifyTopo, core.Full, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := runCertify(st, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.cert.Certified || len(cr.cert.Counterexamples) == 0 {
		t.Fatalf("reconvergence certified: %s", cr.cert.Headline())
	}
	if bad := certifyGate([]*certRun{cr}); len(bad) == 0 {
		t.Fatal("certify gate passed the reconvergence baseline")
	}
}

func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newHist()
	xs := make([]float64, 0, 100000)
	for i := 0; i < cap(xs); i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		h.add(v)
		xs = append(xs, float64(v))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := xs[int(q*float64(len(xs)))]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %.0f, exact %.0f", q, got, want)
		}
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errs); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("printed a result for an unknown workload: %s", out.String())
	}
}

func TestResultLineShape(t *testing.T) {
	line, err := resultLine(true, outcome{attempted: 3, failed: 1, metrics: map[string]float64{"setup_s": 0.5}}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(got), line)
	}
	if !strings.Contains(line, `"setup_s":{"value":0.5,"unit":"s"}`) {
		t.Errorf("metric not rendered with its unit: %s", line)
	}
}

// BENCHMARK.json and the tables the benchmark reports from must name
// the same metrics with the same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(set string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", set, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", set, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for i, w := range spec.Workloads {
		if i >= len(workloads) || w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, w.Name)
		}
	}
}
