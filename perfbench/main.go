// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the program's public entry points, checks every
// output for correctness, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end set, measured untraced.
// With --trace 1 the run repeats the workload with spans around every
// call into a layer and reports the per-layer set instead, writing the
// spans as Chrome trace JSON under .bench_build/. A failed correctness
// gate prints the reasons on standard error, reports no metrics and
// exits 1. See README.md for the workloads and the layer map.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload forward|churn|soak|certify|all --seed N --seconds S --trace 0|1
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"recycle/internal/telemetry"
)

// outDir holds the trace and per-run result files, inside the checkout
// the benchmark runs from.
const outDir = ".bench_build"

// traceRing bounds the spans a traced run keeps (the most recent ones).
const traceRing = 1 << 14

var workloads = []string{"forward", "churn", "soak", "certify"}

// runArgs are one invocation's inputs.
type runArgs struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	peak     *heapPeak // set by runWorkload
}

// outcome is one workload run: its operation account, its metrics (the
// end-to-end or the per-layer set), its correctness failures, and the
// human-readable report lines printed ahead of the JSON line.
type outcome struct {
	attempted, failed uint64
	metrics           map[string]float64
	failures          []string
	report            []string
}

func (o *outcome) line(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(argv []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var a runArgs
	var trace int
	fl.StringVar(&a.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	fl.Int64Var(&a.seed, "seed", 1, "workload seed: every generated input derives from it")
	fl.IntVar(&a.seconds, "seconds", 10, "measured seconds per run")
	fl.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fl.Parse(argv); err != nil {
		return 2
	}
	a.trace = trace == 1
	if a.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	list := []string{a.workload}
	if a.workload == "all" {
		list = workloads
	} else if !known(a.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", a.workload, strings.Join(workloads, ", "))
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env := environment(a)
	fmt.Fprintln(stdout, "# env", env.String())

	combined := outcome{metrics: map[string]float64{}}
	ok := true
	for _, w := range list {
		wa := a
		wa.workload = w
		o, err := runWorkload(wa)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		for _, l := range o.report {
			fmt.Fprintf(stdout, "# %s: %s\n", w, l)
		}
		if err := writeResult(wa, env, o); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if len(o.failures) > 0 {
			ok = false
			for _, f := range o.failures {
				fmt.Fprintf(stderr, "perfbench: %s: FAIL: %s\n", w, f)
			}
		}
		combined.attempted += o.attempted
		combined.failed += o.failed
		for k, v := range o.metrics {
			if len(list) > 1 {
				k = w + "." + k
			}
			combined.metrics[k] = v
		}
	}
	if !ok {
		combined.metrics = map[string]float64{}
	}
	line, err := resultLine(ok, combined, a.trace, len(list) > 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// runWorkload runs one workload and fills in every metric of the
// requested set, so a layer the workload does not exercise reads 0.
func runWorkload(a runArgs) (*outcome, error) {
	peak := startHeapPeak()
	a.peak = peak
	var (
		o   *outcome
		err error
	)
	switch a.workload {
	case "forward", "churn":
		o, err = forwardWorkload(a)
	case "soak":
		o, err = soakWorkload(a)
	case "certify":
		o, err = certifyWorkload(a)
	}
	heap := peak.stop()
	if err != nil {
		return nil, err
	}
	set := endToEnd
	if a.trace {
		set = perLayer
	} else {
		o.metrics["peak_heap_mb"] = float64(heap) / (1 << 20)
		o.line("peak_heap_mb %.3f MB (live heap)", o.metrics["peak_heap_mb"])
	}
	for _, m := range set {
		if _, ok := o.metrics[m.name]; !ok {
			if !a.trace {
				return nil, fmt.Errorf("end-to-end metric %s not measured", m.name)
			}
			o.metrics[m.name] = 0
		}
	}
	for name := range o.metrics {
		if unitOf(set, name) == "" {
			return nil, fmt.Errorf("metric %s is not in the %s set", name, setName(a.trace))
		}
	}
	return o, nil
}

func setName(trace bool) string {
	if trace {
		return "per-layer"
	}
	return "end-to-end"
}

// resultLine renders the final JSON object.
func resultLine(ok bool, o outcome, trace, prefixed bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	set := endToEnd
	if trace {
		set = perLayer
	}
	ms := make(map[string]value, len(o.metrics))
	for k, v := range o.metrics {
		name := k
		if prefixed {
			_, name, _ = strings.Cut(k, ".")
		}
		ms[k] = value{Value: v, Unit: unitOf(set, name)}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, o.attempted, o.failed, ms})
	return string(b), err
}

// env records what a result was measured on: without the CPU, core
// count, GOMAXPROCS and shard count, figures from two machines cannot be
// compared, and shard scaling cannot be judged.
type env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Shards     int    `json:"shards"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func (e env) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s shards=%d seed=%d commit=%s source_sha256=%s",
		e.CPU, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Shards, e.Seed, e.Commit, e.SourceHash)
}

func environment(a runArgs) env {
	e := env{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Shards:     workers(),
		Seed:       a.seed,
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
		SourceHash: sourceHash("."),
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	return e
}

// workers is the engine shard count of every engine the benchmark runs:
// one per processor but one, which the closed-loop driver (or the soak's
// pump) needs for itself. Oversubscribing the processors made the
// figures depend on the scheduler more than on the program.
func workers() int {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	return n
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests every Go source and module file under root (the
// build directory excluded), identifying the code measured when the
// checkout carries no version control metadata.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == outDir || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeResult keeps each run's full record — environment, account,
// metrics and failures — next to its trace.
func writeResult(a runArgs, e env, o *outcome) error {
	rec := struct {
		Workload  string             `json:"workload"`
		Trace     bool               `json:"trace"`
		Seconds   int                `json:"seconds"`
		Time      string             `json:"time"`
		Env       env                `json:"env"`
		Attempted uint64             `json:"attempted"`
		Failed    uint64             `json:"failed"`
		Metrics   map[string]float64 `json:"metrics"`
		Failures  []string           `json:"failures,omitempty"`
		Report    []string           `json:"report"`
	}{a.workload, a.trace, a.seconds, time.Now().UTC().Format(time.RFC3339), e, o.attempted, o.failed, o.metrics, o.failures, o.report}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%v.json", a.workload, a.seed, a.trace)
	return os.WriteFile(filepath.Join(outDir, name), b, 0o644)
}

// writeTrace writes a traced run's spans as Chrome trace JSON and reads
// the file back to check that it parses.
func writeTrace(a runArgs, spans *telemetry.SpanSnapshot) error {
	name := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", a.workload, a.seed))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, spans, nil); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		return fmt.Errorf("chrome trace %s is not valid JSON: %w", name, err)
	}
	if len(tr.TraceEvents) == 0 {
		return fmt.Errorf("chrome trace %s holds no events", name)
	}
	return nil
}
