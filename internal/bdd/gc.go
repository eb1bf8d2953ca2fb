package bdd

// In-engine mark-and-sweep garbage collection.
//
// The paper's reference implementation leans on JDD, which garbage-
// collects its node table (§5.4 fn10); without reclamation a long-lived
// per-subspace verifier grows monotonically under churn. GC restores
// that property for this engine: the caller enumerates the Refs it
// still holds (the root set), the engine marks everything reachable
// from them, sweeps the rest, compacts the survivors into a fresh
// level-ordered arena, and returns a dense old→new remap the caller
// applies to every held Ref.
//
// Marking exploits the construction invariant that mk allocates a node
// only after both children exist, so children always sit at smaller
// arena indices than their parents: setting the root bits and making
// one descending pass over the arena closes the live set.
//
// Compaction lays survivors out in descending level order (deepest
// variables first, terminals at their sentinel level in slots 0 and 1).
// Because a child always tests a strictly deeper variable than its
// parent, descending-level order preserves children-before-parents —
// ExportNodes dumps restore with the same one-pass validation — while
// giving post-GC traversals level locality: every ITE cofactor step
// walks toward higher levels, i.e. strictly earlier (already touched)
// arena chunks.

import "fmt"

// Remap is the dense old→new Ref translation produced by a GC pass.
// Entries for swept (dead) nodes are negative; Apply panics on them,
// because a held Ref that was not in the root set is a leak the caller
// must fix, not a condition to paper over.
type Remap []Ref

// deadRef marks a swept node in a Remap.
const deadRef = Ref(-1)

// Apply translates a pre-GC Ref to its post-GC position.
func (m Remap) Apply(r Ref) Ref {
	if r < 0 || int(r) >= len(m) {
		panic(fmt.Sprintf("bdd: Remap.Apply(%d) outside the pre-GC node range [0,%d)", r, len(m)))
	}
	nr := m[r]
	if nr < 0 {
		panic(fmt.Sprintf("bdd: Remap.Apply(%d) on a swept node — the Ref was held but not enumerated as a GC root", r))
	}
	return nr
}

// Live reports whether r survived the collection.
func (m Remap) Live(r Ref) bool {
	return r >= 0 && int(r) < len(m) && m[r] >= 0
}

// GCStats summarizes one collection pass. Counts include the two
// terminal nodes, matching NumNodes.
type GCStats struct {
	Before    int // nodes before the pass
	After     int // live nodes after the pass
	Reclaimed int // Before - After
}

// GC runs a mark-and-sweep collection. roots must yield every Ref the
// caller still holds; anything not reachable from a yielded Ref (or a
// terminal) is swept. Survivors are compacted into a fresh arena in
// descending level order, the unique table is rebuilt over them, and
// the computed cache is dropped (it memoizes pre-GC Refs). All
// outstanding Refs are invalidated: the caller must rewrite each one
// through the returned Remap before touching the engine again.
func (e *Engine) GC(roots func(yield func(Ref))) (Remap, GCStats) {
	n := e.nnodes
	live := make([]bool, n)
	live[False], live[True] = true, true
	roots(func(r Ref) {
		if r < 0 || int(r) >= n {
			panic(fmt.Sprintf("bdd: GC root %d outside the node range [0,%d)", r, n))
		}
		live[r] = true
	})
	// Children precede parents in the arena, so one descending pass
	// propagates liveness to the full reachable set.
	for i := n - 1; i >= 2; i-- {
		if live[i] {
			nd := e.node(Ref(i))
			live[nd.lo] = true
			live[nd.hi] = true
		}
	}
	// Assign post-GC positions: bucket survivors by level and hand out
	// contiguous index ranges in descending level order (deepest level
	// right after the terminals). Within a level, survivors keep their
	// relative arena order, so the pass is deterministic for a given
	// (state, roots) pair.
	counts := make([]int, e.nvars)
	for i := 2; i < n; i++ {
		if live[i] {
			counts[e.node(Ref(i)).level]++
		}
	}
	cursor := make([]Ref, e.nvars)
	next := Ref(2)
	for lvl := e.nvars - 1; lvl >= 0; lvl-- {
		cursor[lvl] = next
		next += Ref(counts[lvl])
	}
	remap := make(Remap, n)
	remap[False], remap[True] = False, True
	for i := 2; i < n; i++ {
		if !live[i] {
			remap[i] = deadRef
			continue
		}
		lvl := e.node(Ref(i)).level
		remap[i] = cursor[lvl]
		cursor[lvl]++
	}
	// Materialize the compacted arena. A fresh chunk directory (rather
	// than in-place moves) is required because level-ordering can move a
	// node in either direction.
	nchunks := (int(next) + chunkSize - 1) / chunkSize
	dir := make([]*chunk, nchunks)
	for i := range dir {
		dir[i] = new(chunk)
	}
	dir[0][False] = node{level: int32(e.nvars), lo: False, hi: False}
	dir[0][True] = node{level: int32(e.nvars), lo: True, hi: True}
	for i := 2; i < n; i++ {
		if !live[i] {
			continue
		}
		nd := e.node(Ref(i))
		nd.lo = remap[nd.lo]
		nd.hi = remap[nd.hi]
		ni := remap[i]
		dir[ni>>chunkBits][ni&chunkMask] = nd
	}
	e.chunks = dir
	e.nnodes = int(next)
	e.unique = make(map[uniqueKey]Ref, int(next))
	for i := Ref(2); i < next; i++ {
		nd := e.node(i)
		e.unique[nodeKey(nd.level, nd.lo, nd.hi)] = i
	}
	e.cache = make(map[cacheKey]Ref, 1024)
	st := GCStats{Before: n, After: int(next), Reclaimed: n - int(next)}
	e.gcRuns++
	e.gcReclaimed += uint64(st.Reclaimed)
	return remap, st
}

// GCRuns reports how many GC passes have completed.
func (e *Engine) GCRuns() uint64 { return e.gcRuns }

// ReclaimedNodes reports the total node count swept across all GC
// passes.
func (e *Engine) ReclaimedNodes() uint64 { return e.gcReclaimed }
