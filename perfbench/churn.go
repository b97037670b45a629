package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"recycle/internal/dataplane"
	"recycle/internal/graph"
	"recycle/internal/telemetry"
)

// churnStats is the control plane's account over the measured window:
// edits counts the writes applied (weight, structural and flaps; a
// chord reverted for raising the genus is a miss, not an edit). The
// churn goroutine writes it; the driver reads it after stop.
type churnStats struct {
	edits, weight, structural, flaps, chordMisses int
	drains                                        int           // writes landed on a drained data plane
	busy                                          time.Duration // wall time in writes
	swap                                          *hist         // edit issued → ApplyDelta returned, ns
	recompWeight, recompStruct                    *hist         // Recompiler.Apply, ns
	applyDelta, setLink                           *hist         // Engine.ApplyDelta / SetLink, ns
	drain                                         *hist         // drain requested → nothing in flight, ns
}

// churnCtl is the churn workload's second generator: a closed loop of
// seeded control-plane writes against the running engine — weight
// tweaks and genus-preserving chord add/remove through Recompiler.Apply
// and Engine.ApplyDelta, link down/up through Engine.SetLink — paced by
// the data plane's progress (see editEvery).
//
// Link failures land under load: a walk that meets one re-cycles, the
// paper's own case. Every other write changes what walks already
// cycle-following rely on: a repair or a chord add/remove the faces
// they trace, a weight tweak the distance discriminators they compare
// against. Such a walk can loop until its TTL runs out; for repairs this
// is the regime §7 of the paper damps, by keeping a repaired link idle
// until no packet that saw it down is left. Those writes land on a
// drained data plane (see quiesced), so no walk spans them and none is
// lost to them; their recompiles still run beside the reads.
type churnCtl struct {
	eng    *dataplane.Engine
	rec    *dataplane.Recompiler
	tracer *telemetry.Tracer
	rng    *rand.Rand

	held    map[graph.LinkID]bool // the failure draw: never flapped
	flapped []graph.LinkID        // links this loop has set down
	chord   graph.LinkID
	hasCh   bool
	genus   int

	n    int           // writes issued
	tick chan struct{} // one token per editEvery delivered walks
	// The drain hand-off with the driver (see quiesced and fwdRun.drive).
	drainReq chan struct{}
	drained  chan struct{}
	resumed  chan struct{}
	inWin    atomic.Bool
	halt     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
	stats    churnStats
	err      error
	maxFlap  int
}

func newChurnCtl(r *fwdRun, seed int64) *churnCtl {
	c := &churnCtl{
		eng:      r.eng,
		rec:      r.st.rec,
		tracer:   r.tracer,
		rng:      rand.New(rand.NewSource(seed ^ 0x0c4a_7e11)),
		held:     map[graph.LinkID]bool{},
		genus:    r.st.tp.Embedding.Genus(),
		halt:     make(chan struct{}),
		tick:     make(chan struct{}, 1),
		drainReq: make(chan struct{}, 1),
		drained:  make(chan struct{}, 1),
		resumed:  make(chan struct{}, 1),
		stats: churnStats{
			swap: newHist(), recompWeight: newHist(), recompStruct: newHist(),
			applyDelta: newHist(), setLink: newHist(), drain: newHist(),
		},
	}
	for _, l := range failureDraw(r.st.fib.NumLinks()) {
		c.held[l] = true
	}
	c.maxFlap = r.st.fib.NumLinks() / 50
	return c
}

func (c *churnCtl) start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.run()
	}()
}

// stop ends the loop after its current write and waits for it.
func (c *churnCtl) stop() {
	c.once.Do(func() { close(c.halt) })
	c.wg.Wait()
	c.stats.edits = c.stats.weight + c.stats.structural + c.stats.flaps
}

func (c *churnCtl) openWindow() { c.inWin.Store(true) }

func (c *churnCtl) closeWindow() { c.inWin.Store(false) }

// editEvery paces the control plane by the data plane: one write per
// this many delivered walks, and never two at once. Tying writes to
// delivered walks fixes the mix a run measures; an unpaced loop would
// measure how the scheduler happened to split the processors between the
// two planes. Tokens that arrive while a write is running coalesce, so a
// control plane slower than the pace degrades to a plain closed loop and
// the mix drifts again: the pace leaves the writes (~26 ms on average
// here, structural ones ~170 ms) idle most of the time.
const editEvery = 32768

// editMix is the order of write kinds, repeated: 55% weight tweaks (w),
// 35% link flaps (f), 10% structural (s, alternately adding and removing
// a chord). The seed picks each write's target; a fixed order keeps a
// run's share of expensive structural recompiles from varying by seed.
const editMix = "wfwwsffwfwwfwwsfwfww"

// pace hands the control plane a token each time the driver's delivered
// count crosses another editEvery.
func (c *churnCtl) pace(delivered uint64, next *uint64) {
	if delivered < *next {
		return
	}
	*next = delivered + editEvery
	select {
	case c.tick <- struct{}{}:
	default:
	}
}

func (c *churnCtl) run() {
	for c.err == nil {
		select {
		case <-c.halt:
			return
		case <-c.tick:
		}
		// A write counts toward the window's statistics when it starts
		// inside it.
		in := c.inWin.Load()
		t0 := time.Now()
		sp := c.tracer.Start("bench.edit", 0)
		switch editMix[c.n%len(editMix)] {
		case 'w':
			c.weightTweak(sp.ID(), in)
		case 'f':
			c.flap(sp.ID(), in)
		case 's':
			c.structural(sp.ID(), in)
		}
		c.n++
		sp.End()
		if in {
			c.stats.busy += time.Since(t0)
		}
	}
}

// quiesced runs write on a drained data plane: the driver stops
// emitting, every walk in flight resolves, write runs, emissions resume.
// The recompile before it still runs beside the reads. It reports false,
// without running write, when the loop is halted first.
func (c *churnCtl) quiesced(in bool, write func()) bool {
	t0 := time.Now()
	c.drainReq <- struct{}{}
	select {
	case <-c.drained:
	case <-c.halt:
		return false
	}
	if in {
		c.stats.drains++
		c.stats.drain.add(int64(time.Since(t0)))
	}
	write()
	c.resumed <- struct{}{}
	return true
}

// land swaps a recompiled delta into the engine on a drained data plane
// and times the ApplyDelta call. ok is false when the loop was halted
// before the delta landed.
func (c *churnCtl) land(parent telemetry.SpanID, in bool, d *dataplane.Delta) (ok bool, err error) {
	ok = c.quiesced(in, func() {
		sp := c.tracer.Start("bench.apply_delta", parent)
		t0 := time.Now()
		err = c.eng.ApplyDelta(d)
		dt := time.Since(t0)
		sp.End()
		if in && err == nil {
			c.stats.applyDelta.add(int64(dt))
		}
	})
	return ok, err
}

// apply recompiles through the edits and swaps the delta in, timing the
// recompile and the whole write.
func (c *churnCtl) apply(parent telemetry.SpanID, in bool, recomp *hist, edits ...graph.Edit) error {
	t0 := time.Now()
	sp := c.tracer.Start("bench.recompile", parent)
	d, err := c.rec.Apply(edits...)
	sp.End()
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("churn: recompile %v: %w", edits, err)
	}
	if d == nil {
		return nil
	}
	ok, err := c.land(parent, in, d)
	if err != nil {
		return fmt.Errorf("churn: apply delta: %w", err)
	}
	if !ok {
		return nil
	}
	if d.Structural && d.LinkMap != nil {
		c.remap(d.LinkMap)
	}
	if in {
		recomp.add(int64(t1.Sub(t0)))
		c.stats.swap.add(int64(time.Since(t0)))
	}
	return nil
}

func (c *churnCtl) weightTweak(parent telemetry.SpanID, in bool) {
	g := c.rec.Graph()
	l := graph.LinkID(c.rng.Intn(g.NumLinks()))
	w := g.Weight(l) * (0.5 + c.rng.Float64())
	if err := c.apply(parent, in, c.stats.recompWeight, graph.SetWeight(l, w)); err != nil {
		c.err = err
		return
	}
	if in {
		c.stats.weight++
	}
}

// flap sets a random link down, or brings a flapped one back up on a
// drained data plane; at most 2% of links are flapped down at once, on
// top of the held failure draw.
func (c *churnCtl) flap(parent telemetry.SpanID, in bool) {
	var l graph.LinkID
	down := len(c.flapped) == 0 || (len(c.flapped) < c.maxFlap && c.rng.Intn(2) == 0)
	if down {
		n := c.rec.Graph().NumLinks()
		for {
			l = graph.LinkID(c.rng.Intn(n))
			if !c.held[l] && !c.isFlapped(l) && !(c.hasCh && l == c.chord) {
				break
			}
		}
		c.flapped = append(c.flapped, l)
	} else {
		i := c.rng.Intn(len(c.flapped))
		l = c.flapped[i]
		c.flapped[i] = c.flapped[len(c.flapped)-1]
		c.flapped = c.flapped[:len(c.flapped)-1]
	}
	var d time.Duration
	setLink := func() {
		sp := c.tracer.Start("bench.setlink", parent)
		t0 := time.Now()
		c.eng.SetLink(l, down)
		d = time.Since(t0)
		sp.End()
	}
	if down {
		setLink()
	} else if !c.quiesced(in, setLink) {
		return
	}
	if in {
		c.stats.flaps++
		c.stats.setLink.add(int64(d))
	}
}

func (c *churnCtl) isFlapped(l graph.LinkID) bool {
	for _, f := range c.flapped {
		if f == l {
			return true
		}
	}
	return false
}

// structural removes the chord this loop added, or adds one that keeps
// the genus. The recompiler appends a new link last in each endpoint's
// rotation, between its last and first darts, so a chord keeps the
// surface genus exactly when those two corners lie on one face: walk
// the face through a random node's corner and pick another node whose
// corner it also passes. §5's guarantee holds only at genus 0, so the
// result is still checked and a genus-raising chord is reverted on the
// recompiler (the engine never sees it) and counted as a miss.
func (c *churnCtl) structural(parent telemetry.SpanID, in bool) {
	if c.hasCh {
		if err := c.apply(parent, in, c.stats.recompStruct, graph.RemoveLinkEdit(c.chord)); err != nil {
			c.err = err
			return
		}
		c.hasCh = false
		if in {
			c.stats.structural++
		}
		return
	}
	a, b, ok := c.chordCandidate()
	if !ok {
		if in {
			c.stats.chordMisses++
		}
		return
	}
	t0 := time.Now()
	sp := c.tracer.Start("bench.recompile", parent)
	d, err := c.rec.Apply(graph.AddLinkEdit(a, b, 1))
	sp.End()
	t1 := time.Now()
	if err != nil {
		c.err = fmt.Errorf("churn: add chord %d–%d: %w", a, b, err)
		return
	}
	chord := graph.LinkID(d.Graph.NumLinks() - 1)
	if d.System.Genus() > c.genus {
		if _, err := c.rec.Apply(graph.RemoveLinkEdit(chord)); err != nil {
			c.err = fmt.Errorf("churn: revert chord: %w", err)
		}
		if in {
			c.stats.chordMisses++
		}
		return
	}
	ok, err = c.land(parent, in, d)
	if err != nil {
		c.err = fmt.Errorf("churn: apply chord delta: %w", err)
		return
	}
	if !ok {
		return
	}
	if d.LinkMap != nil {
		c.remap(d.LinkMap)
	}
	c.chord, c.hasCh = chord, true
	if in {
		c.stats.structural++
		c.stats.recompStruct.add(int64(t1.Sub(t0)))
		c.stats.swap.add(int64(time.Since(t0)))
	}
}

func (c *churnCtl) chordCandidate() (a, b graph.NodeID, ok bool) {
	g, sys := c.rec.Graph(), c.rec.System()
	var cands []graph.NodeID
	for try := 0; try < 64; try++ {
		a = graph.NodeID(c.rng.Intn(g.NumNodes()))
		rot := sys.Rotation(a)
		if len(rot) == 0 {
			continue
		}
		cands = cands[:0]
		for e := sys.FaceNext(rot[0]); e != rot[0]; e = sys.FaceNext(e) {
			t := sys.Dart(e).Tail
			if t != a && sys.Rotation(t)[0] == e && !g.HasLink(a, t) {
				cands = append(cands, t)
			}
		}
		if len(cands) > 0 {
			return a, cands[c.rng.Intn(len(cands))], true
		}
	}
	return 0, 0, false
}

// remap carries the tracked link IDs through a structural delta.
func (c *churnCtl) remap(m []graph.LinkID) {
	held := make(map[graph.LinkID]bool, len(c.held))
	for l := range c.held {
		if nl := m[l]; nl != graph.NoLink {
			held[nl] = true
		}
	}
	c.held = held
	kept := c.flapped[:0]
	for _, l := range c.flapped {
		if nl := m[l]; nl != graph.NoLink {
			kept = append(kept, nl)
		}
	}
	c.flapped = kept
}
