package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"recycle/internal/core"
	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/rotation"
	"recycle/internal/telemetry"
	"recycle/internal/traffic"
)

// The forward workload: a saturated closed loop on grid:32x32 (the
// shared-page FIB, working set beyond L2) under a fixed 5% of links held
// down, about 28 hops per walk with a large share of cycle-following
// decisions. churn runs the same driver beside the control-plane
// generator.
const (
	fwdTopo     = "grid:32x32"
	fwdDownFrac = 0.05 // share of links set down before timing
	fwdWindow   = 2048 // walks in flight (closed loop)
	fwdBatch    = 256  // packets per engine batch
	// fwdRate is the emission schedule in walks per simulated second; it
	// sets the TxQueue clock. At 2M walks/s the mean dart is ~1% busy and
	// packets of one batch that share a dart queue a few packet times,
	// without drops; somewhere between 8M and 32M the hottest darts
	// saturate and forward's loss-free account turns into queue-full
	// drops.
	fwdRate   = 2e6
	fwdSlices = 20 // throughput/CPU samples per measured window
)

// fwdConfig is what varies between runs of the forwarding driver.
type fwdConfig struct {
	variant core.Variant // Full; Basic only in the negative control
	seed    int64
	warmup  time.Duration
	measure time.Duration
	reps    int // timed set-ups, after one untimed
	churn   bool
	traced  bool
	peak    *heapPeak // nil: no live-heap checkpoints
}

// walkMeta is one in-flight walk's driver-side state.
type walkMeta struct {
	src, dst int32
	hops     int32
	spans    bool  // decided under more than one (FIB, LinkState) pair
	emitNs   int64 // host time the walk entered a batch
	// The pair the walk's first hop was decided under.
	fib   *dataplane.FIB
	links *dataplane.LinkState
}

// fbatch is one engine batch plus the driver's per-packet state. The
// driver owns it except between Submit and the OnDoneState hand-off.
type fbatch struct {
	b     dataplane.Batch
	meta  []walkMeta
	tx    []dataplane.TxVerdict // per-packet egress verdict, set in Transmit
	fib   *dataplane.FIB        // the pair the batch was decided under
	links *dataplane.LinkState
	// Traced runs only: set by the driver at Submit and by the worker in
	// Transmit; read by the driver after the hand-off.
	submitNs  int64
	handoffNs int64
	egressNs  int64
	sends     int     // packets handed to the TxQueue
	waits     []int64 // sampled queueing delays, ns
}

// waitSample is the share of transmitted packets whose queueing delay a
// traced run samples (one in waitSample).
const waitSample = 16

// txEgress is the engine's egress stage: it sends every decided packet
// through the TxQueue one at a time (TxQueue.Transmit does the same
// loop) so the driver learns each packet's verdict, and it forwards
// structural rebinds to the queue.
type txEgress struct {
	tx      *dataplane.TxQueue
	byBatch map[*dataplane.Batch]*fbatch // read-only once the engine runs
	traced  bool
	start   time.Time
	tracer  *telemetry.Tracer
}

func (e *txEgress) Transmit(b *dataplane.Batch, st *dataplane.LinkState) {
	fb := e.byBatch[b]
	var t0 time.Time
	var sp telemetry.Span
	if e.traced {
		t0 = time.Now()
		fb.handoffNs = int64(t0.Sub(e.start)) - fb.submitNs
		fb.sends, fb.waits = 0, fb.waits[:0]
		sp = e.tracer.Start("bench.egress", 0)
	}
	for i := range b.Pkts {
		p := &b.Pkts[i]
		if !p.OK {
			continue
		}
		if e.traced {
			if fb.sends%waitSample == 0 {
				fb.waits = append(fb.waits, int64(e.tx.Backlog(p.Egress)))
			}
			fb.sends++
		}
		fb.tx[i] = e.tx.Send(p.Egress, int64(p.Bits), st)
	}
	if e.traced {
		sp.End()
		fb.egressNs = int64(time.Since(t0))
	}
}

func (e *txEgress) RebindDarts(numDarts int, linkMap []graph.LinkID) {
	e.tx.RebindDarts(numDarts, linkMap)
}

// lossKind names why a walk ended undelivered.
type lossKind uint8

const (
	lossNoRoute lossKind = iota
	lossTTL
	lossTx
)

// fwdResult is one driver run's account and measurements.
type fwdResult struct {
	cfg fwdConfig

	setup      setupTimes
	setupTotal time.Duration
	fibBytes   int64
	shards     int

	// Packet accounting over the whole run (warm-up, window and drain).
	generated, delivered                    uint64
	violations, transients, excused, congst uint64
	noRoute, ttl, txDrops                   uint64
	judged, resolved                        uint64
	generations                             int

	// Measured window.
	window       time.Duration
	winDelivered uint64
	winCPU       time.Duration
	winHops      uint64
	slicePPS     []float64
	sliceCPUUs   []float64
	stolen       []string // slices refused for hypervisor steal
	lat          *hist    // emit → deliver, ns
	rt0, rt1     runtimeSample
	pause        time.Duration

	ctl   *churnStats
	lay   *fwdLayers // traced only
	spans *telemetry.SpanSnapshot
	reg0  *telemetry.Snapshot
	reg1  *telemetry.Snapshot
}

// fwdLayers are the traced run's per-layer busy times over the window.
type fwdLayers struct {
	traffic, submit, driverBusy, referee, egress, ondone time.Duration
	submits, refused, sends, txDrops                     uint64
	handoff, waits                                       *hist
}

// fwdRun is the live driver state.
type fwdRun struct {
	cfg     fwdConfig
	st      *stack
	eng     *dataplane.Engine
	tx      *dataplane.TxQueue
	egress  *txEgress
	reg     *telemetry.Registry
	tracer  *telemetry.Tracer
	done    chan *fbatch
	batches []*fbatch
	start   time.Time

	vnow   atomic.Int64 // simulated emission clock (ns) — TxConfig.Now
	vclock int64
	pairs  *rand.Rand
	stream traffic.Stream
	n      int32
	ttl    int32

	ref   referee
	res   *fwdResult
	lay   fwdLayers
	inWin bool

	// Worker-side traced accumulator (OnDoneState runs on the shards).
	ondoneNs atomic.Int64
	// Window-start copies of the accumulators that are cumulative.
	lay0    fwdLayers
	ondone0 int64
	egress0 int64
	egressT int64 // summed fb.egressNs, driver-owned

	ctl      *churnCtl
	nextEdit uint64 // delivered count that releases the next control-plane write
}

// failureDraw picks the links held down during the run. The draw is
// fixed, not taken from the workload seed: hop counts differ from draw
// to draw, and with them the throughput by ~10%.
func failureDraw(numLinks int) []graph.LinkID {
	rng := rand.New(rand.NewSource(0x5eed_f416))
	k := int(fwdDownFrac*float64(numLinks) + 0.5)
	perm := rng.Perm(numLinks)
	out := make([]graph.LinkID, k)
	for i := range out {
		out[i] = graph.LinkID(perm[i])
	}
	return out
}

// runForward builds the stack, runs the closed loop and returns its
// account. The correctness gates are applied by the caller.
func runForward(cfg fwdConfig) (*fwdResult, error) {
	r := &fwdRun{cfg: cfg, res: &fwdResult{cfg: cfg, lat: newHist()}}
	if cfg.traced {
		r.reg = telemetry.NewRegistry()
		r.tracer = telemetry.NewTracer(traceRing)
		r.lay.handoff, r.lay.waits = newHist(), newHist()
	}
	st, parts, total, err := setupRepeats(1, cfg.reps, 1, fwdTopo, cfg.variant, true, r.tracer, r.reg)
	if err != nil {
		return nil, err
	}
	r.st = st
	r.res.setup, r.res.setupTotal = parts, total
	r.res.fibBytes = st.fib.MemBytes()
	r.n = int32(st.fib.NumNodes())
	r.ttl = 4 * r.n

	src := traffic.Poisson{Rate: fwdRate, Seed: cfg.seed}
	if err := src.Validate(); err != nil {
		return nil, err
	}
	r.stream = src.Stream()
	r.pairs = rand.New(rand.NewSource(cfg.seed))

	r.tx = dataplane.NewTxQueue(st.fib, dataplane.TxConfig{
		// TxConfig.Metrics stays nil: its queue-wait histogram is shared
		// by every shard and its contention costs more per packet than
		// the send it measures. The egress stage counts verdicts and
		// samples queue waits itself instead.
		Now: func() time.Duration { return time.Duration(r.vnow.Load()) },
	})
	nb := fwdWindow / fwdBatch
	r.egress = &txEgress{tx: r.tx, byBatch: make(map[*dataplane.Batch]*fbatch, nb), traced: cfg.traced, tracer: r.tracer}
	// Sized to every batch in existence, so a worker's hand-off never
	// blocks.
	r.done = make(chan *fbatch, nb)
	for i := 0; i < nb; i++ {
		fb := &fbatch{
			b:    dataplane.Batch{Pkts: make([]dataplane.Packet, 0, fwdBatch)},
			meta: make([]walkMeta, 0, fwdBatch),
			tx:   make([]dataplane.TxVerdict, fwdBatch),
		}
		if cfg.traced {
			fb.waits = make([]int64, 0, fwdBatch/waitSample+1)
		}
		r.batches = append(r.batches, fb)
		r.egress.byBatch[&fb.b] = fb
	}
	ecfg := dataplane.EngineConfig{
		Shards:      workers(),
		Egress:      r.egress,
		OnDoneState: r.onDone,
	}
	if cfg.traced {
		ecfg.Metrics, ecfg.Tracer = r.reg, r.tracer
		st.rec.Register(r.reg)
		st.rec.SetTracer(r.tracer)
	}
	r.eng = dataplane.NewEngine(st.fib, ecfg)
	r.res.shards = r.eng.Shards()
	for _, l := range failureDraw(st.fib.NumLinks()) {
		r.eng.SetLink(l, true)
	}
	if cfg.churn {
		r.ctl = newChurnCtl(r, cfg.seed)
	}
	cfg.peak.checkpoint()

	r.start = time.Now()
	r.egress.start = r.start
	if r.ctl != nil {
		r.ctl.start()
	}
	r.drive()
	if r.ctl != nil {
		r.ctl.stop() // already stopped unless the window never closed
	}
	r.eng.Close()
	if r.ctl != nil {
		if r.ctl.err != nil {
			return nil, r.ctl.err
		}
		r.res.ctl = &r.ctl.stats
	}
	r.res.generations = r.ref.generations
	r.res.spans = r.tracer.SpanSnapshot()
	return r.res, nil
}

// onDone runs on the deciding shard: it records the pair the batch was
// decided under and hands the batch back to the driver.
func (r *fwdRun) onDone(b *dataplane.Batch, f *dataplane.FIB, ls *dataplane.LinkState) {
	fb := r.egress.byBatch[b]
	fb.fib, fb.links = f, ls
	if !r.cfg.traced {
		r.done <- fb
		return
	}
	t0 := time.Now()
	sp := r.tracer.Start("bench.ondone", 0)
	r.done <- fb
	sp.End()
	r.ondoneNs.Add(int64(time.Since(t0)))
}

// drive is the driver goroutine: it resolves each decided batch,
// refills it with fresh walks (one per resolved walk, so the number in
// flight stays at the window) and resubmits it, until the measured
// window ends and every walk in flight has resolved. When the churn
// control plane asks for a drain it stops refilling, parks the batches
// that empty, and once nothing is in flight hands the quiescent plane
// over until the write has landed.
func (r *fwdRun) drive() {
	cfg := r.cfg
	warm := int64(cfg.warmup)
	deadline := warm + int64(cfg.measure)
	sliceLen := int64(cfg.measure) / fwdSlices
	nextSlice := warm
	var sliceT0 int64
	var sliceDel uint64
	var sliceCPU, sliceSteal time.Duration
	emitting, draining := true, false
	var parked []*fbatch
	for _, fb := range r.batches {
		r.refill(fb, 0)
		r.submit(fb)
	}
	active := len(r.batches)
	for active > 0 {
		fb := <-r.done
		t0 := time.Now()
		now := int64(t0.Sub(r.start))
		var sp telemetry.Span
		if cfg.traced {
			sp = r.tracer.Start("bench.driver.batch", 0)
			r.lay.handoff.add(fb.handoffNs)
			r.egressT += fb.egressNs
			r.lay.sends += uint64(fb.sends)
			for _, w := range fb.waits {
				r.lay.waits.add(w)
			}
		}
		r.process(fb, now)
		if r.ctl != nil {
			r.ctl.pace(r.res.delivered, &r.nextEdit)
			if !draining {
				select {
				case <-r.ctl.drainReq:
					draining = true
				default:
				}
			}
		}
		if emitting && now >= nextSlice {
			cpu, steal := cpuTime(), stealTime()
			if !r.inWin {
				r.openWindow(cpu)
			} else if d := r.res.winDelivered - sliceDel; d > 0 {
				if dt, err := unstolen(time.Duration(now-sliceT0), steal-sliceSteal); err != nil {
					r.res.stolen = append(r.res.stolen, err.Error())
				} else {
					r.res.slicePPS = append(r.res.slicePPS, float64(d)/dt.Seconds())
					r.res.sliceCPUUs = append(r.res.sliceCPUUs, float64(cpu-sliceCPU)/1e3/float64(d))
				}
			}
			sliceT0, sliceDel, sliceCPU, sliceSteal = now, r.res.winDelivered, cpu, steal
			nextSlice += sliceLen
			if now >= deadline {
				emitting = false
				r.closeWindow(now, cpu)
			}
		}
		if emitting && !draining {
			r.refill(fb, now)
		}
		switch {
		case len(fb.b.Pkts) > 0:
			r.submit(fb)
		case draining && emitting:
			parked = append(parked, fb)
		default:
			active--
		}
		if draining && !emitting {
			// The window closed mid-drain and stopped the control plane.
			active -= len(parked)
			parked, draining = parked[:0], false
		}
		if cfg.traced {
			sp.End()
			r.lay.driverBusy += time.Since(t0)
		}
		if draining && len(parked) == active {
			r.ctl.drained <- struct{}{}
			<-r.ctl.resumed
			draining = false
			t1 := time.Now()
			for _, p := range parked {
				r.refill(p, int64(t1.Sub(r.start)))
				r.submit(p)
			}
			parked = parked[:0]
			if cfg.traced {
				r.lay.driverBusy += time.Since(t1)
			}
		}
	}
}

// openWindow marks the end of the warm-up: from here on deliveries,
// latencies, CPU and the layer accumulators count.
func (r *fwdRun) openWindow(cpu time.Duration) {
	r.inWin = true
	r.res.winCPU = cpu
	r.res.window = time.Since(r.start)
	r.res.rt0 = readRuntime()
	r.res.pause = gcPauseTotal()
	if r.cfg.traced {
		r.lay0 = r.lay
		r.ondone0 = r.ondoneNs.Load()
		r.egress0 = r.egressT
		r.res.reg0 = r.reg.Snapshot()
	}
	if r.ctl != nil {
		r.ctl.openWindow()
	}
}

func (r *fwdRun) closeWindow(now int64, cpu time.Duration) {
	r.inWin = false
	r.res.window = time.Duration(now) - r.res.window
	r.res.winCPU = cpu - r.res.winCPU
	r.res.rt1 = readRuntime()
	r.res.pause = gcPauseTotal() - r.res.pause
	if r.ctl != nil {
		// Stop the control plane before the registry snapshot (the
		// recompiler's collector may only run between Applies) and
		// before the heap checkpoint, which should see what the
		// workload retains, not a recompile caught half-way.
		r.ctl.closeWindow()
		r.ctl.stop()
	}
	r.cfg.peak.checkpoint()
	if r.cfg.traced {
		l := r.lay
		l.traffic -= r.lay0.traffic
		l.submit -= r.lay0.submit
		l.driverBusy -= r.lay0.driverBusy
		l.referee -= r.lay0.referee
		l.submits -= r.lay0.submits
		l.refused -= r.lay0.refused
		l.sends -= r.lay0.sends
		l.txDrops -= r.lay0.txDrops
		l.ondone = time.Duration(r.ondoneNs.Load() - r.ondone0)
		l.egress = time.Duration(r.egressT - r.egress0)
		r.res.lay = &l
		r.res.reg1 = r.reg.Snapshot()
	}
}

func (r *fwdRun) submit(fb *fbatch) {
	var t0 time.Time
	var sp telemetry.Span
	if r.cfg.traced {
		t0 = time.Now()
		sp = r.tracer.Start("bench.submit", 0)
		fb.submitNs = int64(t0.Sub(r.start))
	}
	for !r.eng.Submit(&fb.b) {
		// Cannot happen while the rings hold more batches than exist;
		// counted so a change that shrinks them shows.
		r.lay.refused++
		time.Sleep(10 * time.Microsecond)
	}
	if r.cfg.traced {
		sp.End()
		r.lay.submit += time.Since(t0)
		r.lay.submits++
	}
}

// refill tops the batch up with new walks from the seeded emission
// schedule: uniform (src, dst) pairs, Poisson emission instants that
// advance the simulated clock the egress queues pace against.
func (r *fwdRun) refill(fb *fbatch, now int64) {
	var t0 time.Time
	var sp telemetry.Span
	if r.cfg.traced {
		t0 = time.Now()
		sp = r.tracer.Start("bench.traffic", 0)
	}
	for len(fb.b.Pkts) < cap(fb.b.Pkts) {
		gap, bits, _ := r.stream.Next()
		r.vclock += int64(gap)
		s := r.pairs.Int31n(r.n)
		d := r.pairs.Int31n(r.n - 1)
		if d >= s {
			d++
		}
		fb.b.Pkts = append(fb.b.Pkts, dataplane.Packet{
			Node: graph.NodeID(s), Dst: graph.NodeID(d), Ingress: rotation.NoDart, Bits: int32(bits),
		})
		fb.meta = append(fb.meta, walkMeta{src: s, dst: d, emitNs: now})
		r.res.generated++
	}
	r.vnow.Store(r.vclock)
	if r.cfg.traced {
		sp.End()
		r.lay.traffic += time.Since(t0)
	}
}

// process resolves one decided batch: every packet either arrived,
// was lost (refereed), or advances one hop and stays in the batch.
func (r *fwdRun) process(fb *fbatch, now int64) {
	pkts, meta := fb.b.Pkts, fb.meta
	keep := 0
	for i := range pkts {
		pk, m := &pkts[i], &meta[i]
		if m.fib == nil {
			m.fib, m.links = fb.fib, fb.links
		} else if m.fib != fb.fib || m.links != fb.links {
			m.spans = true
		}
		if !pk.OK {
			r.lose(m, fb, lossNoRoute, 0)
			continue
		}
		if v := fb.tx[i]; v != dataplane.TxSent {
			r.lose(m, fb, lossTx, v)
			continue
		}
		m.hops++
		next := fb.fib.Head(pk.Egress)
		if int32(next) == m.dst {
			r.res.delivered++
			r.res.resolved++
			if !m.spans {
				r.res.judged++
			}
			if r.inWin {
				r.res.winDelivered++
				r.res.winHops += uint64(m.hops)
				r.res.lat.add(now - m.emitNs)
			}
			continue
		}
		if m.hops >= r.ttl {
			r.lose(m, fb, lossTTL, 0)
			continue
		}
		pk.Node, pk.Ingress = next, pk.Egress
		pkts[keep], meta[keep] = *pk, *m
		keep++
	}
	fb.b.Pkts, fb.meta = pkts[:keep], meta[:keep]
	r.ref.observe(fb.fib, fb.links)
}

// lose referees one undelivered walk. A walk whose every hop was decided
// under one (FIB, LinkState) pair is judged against that pair: lost while
// src and dst share a component of its up-link graph is a violation of
// the paper's guarantee, otherwise the loss is excused. A walk that
// spans pairs met a control-plane change in flight: transient, unless
// the latest pair disconnects it. Queue-full drops are congestion, not
// routing, and are counted apart.
func (r *fwdRun) lose(m *walkMeta, fb *fbatch, kind lossKind, v dataplane.TxVerdict) {
	var t0 time.Time
	if r.cfg.traced {
		t0 = time.Now()
	}
	res := r.res
	res.resolved++
	if !m.spans {
		res.judged++
	}
	switch kind {
	case lossNoRoute:
		res.noRoute++
	case lossTTL:
		res.ttl++
	case lossTx:
		res.txDrops++
		r.lay.txDrops++
	}
	switch {
	case kind == lossTx && v == dataplane.TxDropQueueFull:
		res.congst++
	case kind == lossTx && v == dataplane.TxDropStaleDart:
		// Only a structural swap between decision and transmit retires
		// a dart.
		res.transients++
	case !r.ref.connected(fb.fib, fb.links, m.src, m.dst):
		res.excused++
	case m.spans:
		res.transients++
	default:
		res.violations++
	}
	if r.cfg.traced {
		r.lay.referee += time.Since(t0)
	}
}

// referee answers connectivity questions about a (FIB, LinkState) pair.
// Components are built once per pair from FIB.Head and LinkState.Down and
// cached for the few most recent pairs; it also counts the distinct pairs
// the driver saw batches decided under.
type referee struct {
	recent      [4]pairKey
	nrecent     int
	last        pairKey
	generations int
	comps       [2]pairComps
	ncomp       int
}

type pairKey struct {
	fib   *dataplane.FIB
	links *dataplane.LinkState
}

type pairComps struct {
	key  pairKey
	comp []int32
}

func (r *referee) observe(f *dataplane.FIB, ls *dataplane.LinkState) {
	k := pairKey{f, ls}
	if k == r.last {
		return
	}
	r.last = k
	for i := 0; i < r.nrecent; i++ {
		if r.recent[i] == k {
			return
		}
	}
	r.generations++
	copy(r.recent[1:], r.recent[:len(r.recent)-1])
	r.recent[0] = k
	if r.nrecent < len(r.recent) {
		r.nrecent++
	}
}

func (r *referee) connected(f *dataplane.FIB, ls *dataplane.LinkState, a, b int32) bool {
	k := pairKey{f, ls}
	for i := 0; i < r.ncomp; i++ {
		if r.comps[i].key == k {
			return r.comps[i].comp[a] == r.comps[i].comp[b]
		}
	}
	comp := components(f, ls)
	copy(r.comps[1:], r.comps[:len(r.comps)-1])
	r.comps[0] = pairComps{key: k, comp: comp}
	if r.ncomp < len(r.comps) {
		r.ncomp++
	}
	return comp[a] == comp[b]
}

// components labels every node with its component root in the up-link
// graph of a pair: darts 2l and 2l+1 are link l's two directions, so
// their heads are its endpoints.
func components(f *dataplane.FIB, ls *dataplane.LinkState) []int32 {
	u := newUnionFind(f.NumNodes())
	for l := 0; l < f.NumLinks(); l++ {
		if !ls.Down(graph.LinkID(l)) {
			u.union(int32(f.Head(rotation.DartID(2*l))), int32(f.Head(rotation.DartID(2*l+1))))
		}
	}
	for i := range u {
		u[i] = u.find(int32(i))
	}
	return u
}

// unionFind is a disjoint-set forest over node IDs: each entry is its
// node's parent, a root its own.
type unionFind []int32

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = int32(i)
	}
	return u
}

func (u unionFind) find(x int32) int32 {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

// union joins the sets of a and b, and reports whether they were apart.
func (u unionFind) union(a, b int32) bool {
	a, b = u.find(a), u.find(b)
	if a == b {
		return false
	}
	u[a] = b
	return true
}

// gate returns the correctness failures of a forwarding run.
func (res *fwdResult) gate() []string {
	var bad []string
	if res.violations > 0 {
		bad = append(bad, fmt.Sprintf("%d violations: walks lost while src and dst stayed connected under one (FIB, LinkState) pair", res.violations))
	}
	lost := res.violations + res.transients + res.congst
	if res.generated != res.delivered+lost+res.excused {
		bad = append(bad, fmt.Sprintf("accounting does not close: generated %d ≠ delivered %d + lost %d + excused %d",
			res.generated, res.delivered, lost, res.excused))
	}
	if res.generated != res.resolved {
		bad = append(bad, fmt.Sprintf("%d walks never resolved", res.generated-res.resolved))
	}
	if res.noRoute+res.ttl+res.txDrops != lost+res.excused {
		bad = append(bad, "loss causes do not sum to the refereed classes")
	}
	if !res.cfg.churn && res.transients > 0 {
		bad = append(bad, fmt.Sprintf("%d transients on a static run", res.transients))
	}
	for _, e := range res.stolen {
		bad = append(bad, "measured slice: "+e)
	}
	if res.winDelivered == 0 || len(res.slicePPS) == 0 {
		bad = append(bad, "no walk delivered inside the measured window")
	}
	return bad
}

// forwardConfig is the forward (or churn) workload's driver run.
func forwardConfig(a runArgs, measure time.Duration) fwdConfig {
	return fwdConfig{
		variant: core.Full,
		seed:    a.seed,
		warmup:  time.Second,
		measure: measure,
		reps:    9,
		churn:   a.workload == "churn",
		peak:    a.peak,
	}
}

func forwardWorkload(a runArgs) (*outcome, error) {
	measure := time.Duration(a.seconds) * time.Second
	cfg := forwardConfig(a, measure)
	if !a.trace {
		res, err := runForward(cfg)
		if err != nil {
			return nil, err
		}
		o := res.outcome()
		o.metrics = res.endToEnd()
		return o, nil
	}
	// The traced pass: the same workload untraced, then traced, each for
	// half the time; the difference is the tracing overhead.
	cfg.measure = measure / 2
	base, err := runForward(cfg)
	if err != nil {
		return nil, err
	}
	if bad := base.gate(); len(bad) > 0 {
		o := base.outcome()
		return o, nil
	}
	cfg.traced = true
	res, err := runForward(cfg)
	if err != nil {
		return nil, err
	}
	o := res.outcome()
	o.metrics = res.perLayer(median(base.sliceCPUUs))
	// The driver and referee stand in for the rest of a network; if they
	// cost as much as the program, delivered_pps measures the benchmark.
	share := res.driverShare()
	o.line("driver + referee %.0f ns of %.0f ns CPU per walk (%.1f%%), driver busy %.1f%% of the window",
		share*ratio(float64(res.winCPU), float64(res.winDelivered)), ratio(float64(res.winCPU), float64(res.winDelivered)),
		100*share, 100*o.metrics["driver.busy_frac"])
	if share >= maxDriverShare {
		o.failures = append(o.failures, fmt.Sprintf("driver + referee take %.1f%% of the CPU per walk, not a minority", 100*share))
	}
	if err := writeTrace(a, res.spans); err != nil {
		o.failures = append(o.failures, err.Error())
	}
	return o, nil
}

// outcome renders the run's account and report lines and applies the
// correctness gates.
func (res *fwdResult) outcome() *outcome {
	lost := res.violations + res.transients + res.congst
	o := &outcome{attempted: res.generated, failed: lost, metrics: map[string]float64{}, failures: res.gate()}
	o.line("topology %s, %d shards, window %d walks in batches of %d, %.0f%% links down, traced=%v",
		fwdTopo, res.shards, fwdWindow, fwdBatch, 100*fwdDownFrac, res.cfg.traced)
	o.line("walks: generated %d = delivered %d + lost %d (violations %d, transients %d, congestion %d) + excused %d",
		res.generated, res.delivered, lost, res.violations, res.transients, res.congst, res.excused)
	o.line("loss_frac %.6f fraction; referee judged %.4f of %d walks across %d (FIB, LinkState) pairs",
		ratio(float64(lost), float64(res.generated)), ratio(float64(res.judged), float64(res.resolved)), res.resolved, res.generations)
	o.line("slices: delivered_pps %s", sliceSummary(res.slicePPS))
	o.line("delivered_pps %.0f 1/s, cpu_us_per_pkt %.4f us, walk_p50_us %.1f us, walk_p99_us %.1f us (%d walks, %d slices), setup_s %.4f s",
		median(res.slicePPS), median(res.sliceCPUUs), res.lat.quantile(0.5)/1e3, res.lat.quantile(0.99)/1e3, res.lat.n, len(res.slicePPS), res.setupTotal.Seconds())
	if c := res.ctl; c != nil {
		o.line("control plane: %d edits (%d weight, %d structural, %d link flaps, %d chord misses) = edits_per_s %.1f 1/s; swap_p50_ms %.3f ms, swap_p99_ms %.3f ms (%d deltas)",
			c.edits, c.weight, c.structural, c.flaps, c.chordMisses, ratio(float64(c.edits), res.window.Seconds()),
			c.swap.quantile(0.5)/1e6, c.swap.quantile(0.99)/1e6, c.swap.n)
		o.line("drains: %d writes (all but link failures) landed on a drained data plane; drain p50 %.3f ms, churn.drain_ms_p99 %.3f ms",
			c.drains, c.drain.quantile(0.5)/1e6, c.drain.quantile(0.99)/1e6)
	}
	return o
}

func (res *fwdResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":        res.setupTotal.Seconds(),
		"delivered_pps":  median(res.slicePPS),
		"cpu_us_per_pkt": median(res.sliceCPUUs),
	}
}

// perLayer cuts the traced run into layers. Busy times are per
// delivered walk over the measured window, so they add up against the
// process CPU per walk; the remainder is budget.unattributed.
func (res *fwdResult) perLayer(untracedCPUUs float64) map[string]float64 {
	d := res.reg1.Sub(res.reg0)
	l := res.lay
	del := float64(res.winDelivered)
	perWalk := func(t time.Duration) float64 { return ratio(float64(t), del) }
	decided := float64(d.Counter("engine.decided"))
	slow := float64(d.Counter("engine.event.detect") + d.Counter("engine.event.continue") +
		d.Counter("engine.event.resume") + d.Counter("engine.drop.no-route"))
	decideNs := float64(d.Histograms["engine.batch_ns"].Sum)
	sends, drops := float64(l.sends), float64(l.txDrops)
	driverSelf := l.driverBusy - l.traffic - l.submit - l.referee
	gcCPU := res.rt1.gcCPU - res.rt0.gcCPU
	var ctlBusy time.Duration
	m := map[string]float64{
		"setup.topology_ms":          res.setup.topology.Seconds() * 1e3,
		"setup.embed_ms":             res.setup.embed.Seconds() * 1e3,
		"setup.protocol_ms":          res.setup.protocol.Seconds() * 1e3,
		"setup.compile_ms":           res.setup.compile.Seconds() * 1e3,
		"setup.recompiler_ms":        res.setup.recompiler.Seconds() * 1e3,
		"fib.mem_bytes":              float64(res.fibBytes),
		"traffic.ns_per_pkt":         perWalk(l.traffic),
		"engine.submit_ns_per_batch": ratio(float64(l.submit), float64(l.submits)),
		"engine.submit_refused":      float64(l.refused),
		"engine.handoff_us_p99":      l.handoff.quantile(0.99) / 1e3,
		"fib.decide_ns_per_decision": ratio(decideNs, decided),
		"fib.slowpath_frac":          ratio(slow, decided),
		"walk.hops_mean":             ratio(float64(res.winHops), del),
		"walk.p50_us":                res.lat.quantile(0.5) / 1e3,
		"walk.p99_us":                res.lat.quantile(0.99) / 1e3,
		"egress.transmit_ns_per_pkt": ratio(float64(l.egress), sends),
		"egress.queue_wait_us_p99":   l.waits.quantile(0.99) / 1e3,
		"egress.drop_frac":           ratio(drops, sends),
		"driver.ns_per_pkt":          perWalk(driverSelf),
		"driver.busy_frac":           ratio(float64(l.driverBusy), float64(res.window)),
		"referee.judged_frac":        ratio(float64(res.judged), float64(res.resolved)),
		"referee.generations":        float64(res.generations),
		"loss_frac":                  ratio(float64(res.violations+res.transients+res.congst), float64(res.generated)),
		"go.alloc_bytes_per_pkt":     ratio(float64(res.rt1.allocBytes-res.rt0.allocBytes), del),
		"go.gc_cycles":               float64(res.rt1.gcCycles - res.rt0.gcCycles),
		"go.gc_pause_ms":             res.pause.Seconds() * 1e3,
	}
	if c := res.ctl; c != nil {
		ctlBusy = c.busy
		applies := float64(d.Counter("recompile.applies"))
		m["recompile.weight_ms_p50"] = c.recompWeight.quantile(0.5) / 1e6
		m["recompile.weight_ms_p99"] = c.recompWeight.quantile(0.99) / 1e6
		m["recompile.structural_ms_p99"] = c.recompStruct.quantile(0.99) / 1e6
		m["recompile.dirty_dests_per_edit"] = ratio(float64(d.Counter("recompile.dirty_dests")), applies)
		m["repair.trees_per_edit"] = ratio(float64(d.Counter("repair.repaired")), applies)
		m["repair.full_fallback"] = float64(d.Counter("repair.full_fallback"))
		m["swap.apply_delta_us_p99"] = c.applyDelta.quantile(0.99) / 1e3
		m["swap.setlink_us_p99"] = c.setLink.quantile(0.99) / 1e3
		m["engine.swap_barrier_us_p99"] = snapQuantile(d.Histograms["engine.swap_barrier_ns"], 0.99) / 1e3
		m["edits_per_s"] = ratio(float64(c.edits), res.window.Seconds())
		m["swap_p50_ms"] = c.swap.quantile(0.5) / 1e6
		m["swap_p99_ms"] = c.swap.quantile(0.99) / 1e6
		m["churn.drain_ms_p99"] = c.drain.quantile(0.99) / 1e6
	}
	cpuNs := ratio(float64(res.winCPU), del)
	attributed := perWalk(l.traffic) + perWalk(l.submit) + ratio(decideNs, del) + perWalk(l.egress) +
		perWalk(l.ondone) + perWalk(driverSelf) + perWalk(l.referee) + perWalk(gcCPU) + perWalk(ctlBusy)
	m["budget.unattributed_ns_per_pkt"] = cpuNs - attributed
	m["trace.overhead_frac"] = ratio(median(res.sliceCPUUs), untracedCPUUs) - 1
	return m
}

// maxDriverShare bounds the benchmark's own driver and referee as a share
// of the traced CPU per walk.
const maxDriverShare = 0.5

// driverShare is the traced run's driver and referee busy time as a
// share of the process CPU over the window.
func (res *fwdResult) driverShare() float64 {
	l := res.lay
	return ratio(float64(l.driverBusy-l.traffic-l.submit), float64(res.winCPU))
}

// sliceSummary renders a sample's quartiles, so a run's own spread is in
// its report.
func sliceSummary(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g (n=%d)", s[0], q(0.25), q(0.5), q(0.75), s[len(s)-1], len(s))
}
