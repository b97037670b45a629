// Package embedding computes cellular embeddings (rotation systems) of
// network graphs for Packet Re-cycling. The paper performs this step offline
// on a designated server (§4.3) and notes that minimum-genus embedding is
// NP-hard in general but efficient for planar graphs (§7). Accordingly this
// package offers:
//
//   - Planar: the left-right planarity test (de Fraysseix–Rosenstiehl, in
//     Brandes' formulation) with full embedding extraction — linear time,
//     genus 0, for planar inputs such as most ISP backbone cores;
//   - Greedy: face-maximising incremental edge insertion for arbitrary
//     graphs;
//   - Annealer: seeded local search over rotation systems to reduce genus;
//   - Auto: planar if possible, otherwise the best of the heuristics.
package embedding

import (
	"errors"
	"fmt"
	"sort"

	"recycle/internal/graph"
	"recycle/internal/rotation"
)

// ErrNonPlanar is returned by Planar.Embed for graphs that admit no
// crossing-free drawing in the plane.
var ErrNonPlanar = errors.New("embedding: graph is not planar")

// ErrMultigraph is returned by Planar.Embed when the graph has parallel
// links, which the left-right implementation does not support. (Parallel
// links never change planarity; deduplicate before testing if needed.)
var ErrMultigraph = errors.New("embedding: parallel links not supported by the planarity test")

// Planar embeds planar graphs on the sphere (genus 0) using the left-right
// planarity criterion. Embed returns ErrNonPlanar for non-planar inputs.
type Planar struct{}

// Name implements Embedder.
func (Planar) Name() string { return "planar-lr" }

// Embed implements Embedder.
func (Planar) Embed(g *graph.Graph) (*rotation.System, error) {
	if hasParallelLinks(g) {
		return nil, ErrMultigraph
	}
	lr := newLRState(g)
	orders, err := lr.run()
	if err != nil {
		return nil, err
	}
	return rotation.FromLinkOrders(g, orders)
}

func hasParallelLinks(g *graph.Graph) bool {
	seen := make(map[[2]graph.NodeID]bool, g.NumLinks())
	for _, l := range g.Links() {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		if seen[[2]graph.NodeID{a, b}] {
			return true
		}
		seen[[2]graph.NodeID{a, b}] = true
	}
	return false
}

// ---------------------------------------------------------------------------
// Left-right planarity (Brandes' formulation of de Fraysseix–Rosenstiehl).
//
// Oriented edges are rotation.DartIDs: dart 2l is link l oriented A→B,
// 2l+1 the reverse. The algorithm runs three DFS passes:
//
//  1. orientation — orient each link along the DFS, computing heights,
//     low-points and nesting depths;
//  2. testing — maintain a stack of conflict pairs of return-edge
//     intervals; the graph is planar iff no interval pair ever needs both
//     of its sides simultaneously;
//  3. embedding — derive each edge's side (+1 right / −1 left) from the
//     recorded constraints and assemble counter-clockwise adjacency rings.
// ---------------------------------------------------------------------------

type lrState struct {
	g *graph.Graph

	height     []int             // per node; -1 = unvisited
	parentEdge []rotation.DartID // per node; NoDart at roots
	roots      []graph.NodeID

	orientedLink []bool              // per link: already oriented?
	orientedAdj  [][]rotation.DartID // per node: outgoing oriented darts (DFS order)
	orderedAdj   [][]rotation.DartID // per node: outgoing darts by nesting depth

	lowpt    []int // per dart
	lowpt2   []int
	nesting  []int
	ref      []rotation.DartID
	side     []int8
	lowptME  []rotation.DartID // lowpt_edge
	stackBot []*conflictPair   // stack bottom marker per dart

	s []*conflictPair
}

// interval is a range of return edges, bounded by its low and high darts.
type interval struct {
	low, high rotation.DartID
}

var emptyInterval = interval{low: rotation.NoDart, high: rotation.NoDart}

func (i interval) empty() bool { return i.low == rotation.NoDart && i.high == rotation.NoDart }

// conflictPair holds the return-edge intervals that must embed on opposite
// sides of the current tree edge.
type conflictPair struct {
	l, r interval
}

func (p *conflictPair) swap() { p.l, p.r = p.r, p.l }

func (p *conflictPair) lowest(lr *lrState) int {
	if p.l.empty() {
		return lr.lowpt[p.r.low]
	}
	if p.r.empty() {
		return lr.lowpt[p.l.low]
	}
	if a, b := lr.lowpt[p.l.low], lr.lowpt[p.r.low]; a < b {
		return a
	} else {
		return b
	}
}

func newLRState(g *graph.Graph) *lrState {
	n, m := g.NumNodes(), g.NumLinks()
	lr := &lrState{
		g:            g,
		height:       make([]int, n),
		parentEdge:   make([]rotation.DartID, n),
		orientedLink: make([]bool, m),
		orientedAdj:  make([][]rotation.DartID, n),
		orderedAdj:   make([][]rotation.DartID, n),
		lowpt:        make([]int, 2*m),
		lowpt2:       make([]int, 2*m),
		nesting:      make([]int, 2*m),
		ref:          make([]rotation.DartID, 2*m),
		side:         make([]int8, 2*m),
		lowptME:      make([]rotation.DartID, 2*m),
		stackBot:     make([]*conflictPair, 2*m),
	}
	for i := range lr.height {
		lr.height[i] = -1
		lr.parentEdge[i] = rotation.NoDart
	}
	for d := range lr.ref {
		lr.ref[d] = rotation.NoDart
		lr.side[d] = 1
		lr.lowptME[d] = rotation.NoDart
	}
	return lr
}

// dart returns link l oriented away from tail.
func (lr *lrState) dart(tail graph.NodeID, l graph.LinkID) rotation.DartID {
	ab, ba := rotation.DartsOf(l)
	if lr.g.Link(l).A == tail {
		return ab
	}
	return ba
}

func (lr *lrState) headOf(d rotation.DartID) graph.NodeID {
	l := lr.g.Link(rotation.LinkOf(d))
	if d%2 == 0 {
		return l.B
	}
	return l.A
}

func (lr *lrState) tailOf(d rotation.DartID) graph.NodeID {
	l := lr.g.Link(rotation.LinkOf(d))
	if d%2 == 0 {
		return l.A
	}
	return l.B
}

func (lr *lrState) top() *conflictPair {
	if len(lr.s) == 0 {
		return nil
	}
	return lr.s[len(lr.s)-1]
}

func (lr *lrState) push(p *conflictPair) { lr.s = append(lr.s, p) }

func (lr *lrState) pop() *conflictPair {
	p := lr.s[len(lr.s)-1]
	lr.s = lr.s[:len(lr.s)-1]
	return p
}

// run executes the three phases and returns per-node link orders
// (counter-clockwise) for a planar embedding.
func (lr *lrState) run() ([][]graph.LinkID, error) {
	n, m := lr.g.NumNodes(), lr.g.NumLinks()
	if n > 2 && m > 3*n-6 {
		return nil, ErrNonPlanar // Euler bound: planar simple graphs are sparse
	}

	// Phase 1: orientation.
	for v := 0; v < n; v++ {
		if lr.height[v] == -1 {
			lr.height[v] = 0
			lr.roots = append(lr.roots, graph.NodeID(v))
			lr.dfsOrient(graph.NodeID(v))
		}
	}

	// Phase 2: testing. Adjacency ordered by nesting depth (stable on the
	// DFS orientation order, for determinism).
	for v := 0; v < n; v++ {
		lr.orderedAdj[v] = append([]rotation.DartID(nil), lr.orientedAdj[v]...)
		sortByNesting(lr.orderedAdj[v], lr.nesting)
	}
	for _, r := range lr.roots {
		if !lr.dfsTest(r) {
			return nil, ErrNonPlanar
		}
	}

	// Phase 3: embedding. Fold the recorded side constraints into signed
	// nesting depths, re-sort, and assemble adjacency rings.
	for v := 0; v < n; v++ {
		for _, d := range lr.orientedAdj[v] {
			lr.nesting[d] *= int(lr.sign(d))
		}
	}
	rings := newRingSet(lr.g)
	for v := 0; v < n; v++ {
		lr.orderedAdj[v] = append([]rotation.DartID(nil), lr.orientedAdj[v]...)
		sortByNesting(lr.orderedAdj[v], lr.nesting)
		var prev graph.NodeID = graph.NoNode
		for _, d := range lr.orderedAdj[v] {
			w := lr.headOf(d)
			rings.insertCW(graph.NodeID(v), w, prev)
			prev = w
		}
	}
	leftRef := make([]graph.NodeID, n)
	rightRef := make([]graph.NodeID, n)
	for i := range leftRef {
		leftRef[i] = graph.NoNode
		rightRef[i] = graph.NoNode
	}
	for _, r := range lr.roots {
		lr.dfsEmbed(r, rings, leftRef, rightRef)
	}

	// Convert rings to link orders.
	orders := make([][]graph.LinkID, n)
	for v := 0; v < n; v++ {
		nbrs := rings.cycle(graph.NodeID(v))
		if len(nbrs) != lr.g.Degree(graph.NodeID(v)) {
			return nil, fmt.Errorf("embedding: internal error: node %d ring has %d entries, degree %d", v, len(nbrs), lr.g.Degree(graph.NodeID(v)))
		}
		orders[v] = make([]graph.LinkID, len(nbrs))
		for i, w := range nbrs {
			orders[v][i] = lr.g.FindLink(graph.NodeID(v), w)
		}
	}
	return orders, nil
}

func sortByNesting(darts []rotation.DartID, nesting []int) {
	sort.SliceStable(darts, func(i, j int) bool {
		return nesting[darts[i]] < nesting[darts[j]]
	})
}

func (lr *lrState) dfsOrient(v graph.NodeID) {
	e := lr.parentEdge[v]
	for _, nb := range lr.g.Neighbors(v) {
		if lr.orientedLink[nb.Link] {
			continue
		}
		lr.orientedLink[nb.Link] = true
		vw := lr.dart(v, nb.Link)
		lr.orientedAdj[v] = append(lr.orientedAdj[v], vw)
		lr.lowpt[vw] = lr.height[v]
		lr.lowpt2[vw] = lr.height[v]
		if lr.height[nb.Node] == -1 { // tree edge
			lr.parentEdge[nb.Node] = vw
			lr.height[nb.Node] = lr.height[v] + 1
			lr.dfsOrient(nb.Node)
		} else { // back edge
			lr.lowpt[vw] = lr.height[nb.Node]
		}
		// Nesting depth: twice the low-point, +1 for chordal edges so that
		// edges with identical return height nest deterministically.
		lr.nesting[vw] = 2 * lr.lowpt[vw]
		if lr.lowpt2[vw] < lr.height[v] {
			lr.nesting[vw]++
		}
		if e != rotation.NoDart {
			switch {
			case lr.lowpt[vw] < lr.lowpt[e]:
				lr.lowpt2[e] = min(lr.lowpt[e], lr.lowpt2[vw])
				lr.lowpt[e] = lr.lowpt[vw]
			case lr.lowpt[vw] > lr.lowpt[e]:
				lr.lowpt2[e] = min(lr.lowpt2[e], lr.lowpt[vw])
			default:
				lr.lowpt2[e] = min(lr.lowpt2[e], lr.lowpt2[vw])
			}
		}
	}
}

func (lr *lrState) dfsTest(v graph.NodeID) bool {
	e := lr.parentEdge[v]
	for i, vw := range lr.orderedAdj[v] {
		lr.stackBot[vw] = lr.top()
		w := lr.headOf(vw)
		if vw == lr.parentEdge[w] { // tree edge
			if !lr.dfsTest(w) {
				return false
			}
		} else { // back edge
			lr.lowptME[vw] = vw
			lr.push(&conflictPair{l: emptyInterval, r: interval{low: vw, high: vw}})
		}
		if lr.lowpt[vw] < lr.height[v] { // vw has a return edge below v
			if i == 0 {
				if e != rotation.NoDart {
					lr.lowptME[e] = lr.lowptME[vw]
				}
			} else if !lr.addConstraints(vw, e) {
				return false
			}
		}
	}
	if e != rotation.NoDart {
		u := lr.tailOf(e)
		lr.trimBackEdges(u)
		// The side of e is the side of a highest return edge.
		if lr.lowpt[e] < lr.height[u] {
			top := lr.top()
			hl, hr := top.l.high, top.r.high
			if hl != rotation.NoDart && (hr == rotation.NoDart || lr.lowpt[hl] > lr.lowpt[hr]) {
				lr.ref[e] = hl
			} else {
				lr.ref[e] = hr
			}
		}
	}
	return true
}

func (lr *lrState) conflicting(i interval, b rotation.DartID) bool {
	return !i.empty() && lr.lowpt[i.high] > lr.lowpt[b]
}

func (lr *lrState) addConstraints(ei, e rotation.DartID) bool {
	p := &conflictPair{l: emptyInterval, r: emptyInterval}
	// Merge return edges of ei into p.r.
	for {
		q := lr.pop()
		if !q.l.empty() {
			q.swap()
		}
		if !q.l.empty() {
			return false // not planar
		}
		if lr.lowpt[q.r.low] > lr.lowpt[e] {
			// Merge intervals.
			if p.r.empty() {
				p.r.high = q.r.high
			} else {
				lr.ref[p.r.low] = q.r.high
			}
			p.r.low = q.r.low
		} else {
			// Align with the parent edge's low-point edge.
			lr.ref[q.r.low] = lr.lowptME[e]
		}
		if lr.top() == lr.stackBot[ei] {
			break
		}
	}
	// Merge conflicting return edges of earlier siblings into p.l.
	for lr.top() != nil && (lr.conflicting(lr.top().l, ei) || lr.conflicting(lr.top().r, ei)) {
		q := lr.pop()
		if lr.conflicting(q.r, ei) {
			q.swap()
		}
		if lr.conflicting(q.r, ei) {
			return false // not planar
		}
		// Merge the interval below lowpt(ei) into p.r.
		lr.ref[p.r.low] = q.r.high
		if q.r.low != rotation.NoDart {
			p.r.low = q.r.low
		}
		if p.l.empty() {
			p.l.high = q.l.high
		} else {
			lr.ref[p.l.low] = q.l.high
		}
		p.l.low = q.l.low
	}
	if !(p.l.empty() && p.r.empty()) {
		lr.push(p)
	}
	return true
}

func (lr *lrState) trimBackEdges(u graph.NodeID) {
	// Drop entire conflict pairs whose lowest return is u itself.
	for len(lr.s) > 0 && lr.top().lowest(lr) == lr.height[u] {
		p := lr.pop()
		if p.l.low != rotation.NoDart {
			lr.side[p.l.low] = -1
		}
	}
	if len(lr.s) == 0 {
		return
	}
	// Trim the topmost pair's intervals of edges returning to u.
	p := lr.pop()
	for p.l.high != rotation.NoDart && lr.headOf(p.l.high) == u {
		p.l.high = lr.ref[p.l.high]
	}
	if p.l.high == rotation.NoDart && p.l.low != rotation.NoDart {
		lr.ref[p.l.low] = p.r.low
		lr.side[p.l.low] = -1
		p.l.low = rotation.NoDart
	}
	for p.r.high != rotation.NoDart && lr.headOf(p.r.high) == u {
		p.r.high = lr.ref[p.r.high]
	}
	if p.r.high == rotation.NoDart && p.r.low != rotation.NoDart {
		lr.ref[p.r.low] = p.l.low
		lr.side[p.r.low] = -1
		p.r.low = rotation.NoDart
	}
	lr.push(p)
}

// sign resolves the side of edge e by following the reference chain laid
// down during testing.
func (lr *lrState) sign(e rotation.DartID) int8 {
	if lr.ref[e] != rotation.NoDart {
		lr.side[e] *= lr.sign(lr.ref[e])
		lr.ref[e] = rotation.NoDart
	}
	return lr.side[e]
}

func (lr *lrState) dfsEmbed(v graph.NodeID, rings *ringSet, leftRef, rightRef []graph.NodeID) {
	for _, vw := range lr.orderedAdj[v] {
		w := lr.headOf(vw)
		if vw == lr.parentEdge[w] { // tree edge
			rings.insertFirst(w, v)
			leftRef[v] = w
			rightRef[v] = w
			lr.dfsEmbed(w, rings, leftRef, rightRef)
		} else { // back edge: embed the half-edge at the ancestor w
			if lr.side[vw] == 1 {
				rings.insertCW(w, v, rightRef[w])
			} else {
				rings.insertCCW(w, v, leftRef[w])
				leftRef[w] = v
			}
		}
	}
}
