// Package bdd implements a reduced ordered binary decision diagram (ROBDD)
// engine used as the predicate representation for header spaces.
//
// The paper's reference implementation uses the JDD library; Go has no
// mature BDD library, so this package provides one from scratch. It is a
// chunked-arena ROBDD with a unique table (hash consing) and an
// ITE-based apply with a bounded computed cache. Because nodes are
// hash-consed, two predicates are logically equivalent if and only if
// their Refs are equal, which the inverse-model code relies on for O(1)
// predicate comparison (Reduce II in the paper aggregates overwrites by
// predicate).
//
// The engine counts "predicate operations" exactly as §3.3 of the paper
// defines them: one conjunction (∧), disjunction (∨) or negation (¬)
// invocation counts as one operation regardless of internal node visits.
// This makes the "# Predicate Operations" column of Table 3 reproducible.
//
// # Concurrency
//
// An Engine is single-owner, as JDD's node table is: it takes no locks,
// and every call — node-creating operations, read-only walks, counter
// reads and structural operations (GC, ExportNodes) alike — must be
// serialized by the caller. Flash gets its parallelism from subspace
// partitioning (§3.4), one engine per subspace, and serializes each
// engine behind its owning subspace's mutex.
package bdd

import "fmt"

// Ref is a reference to a BDD node. The terminals are the constants False
// and True; all other Refs index into the owning Engine's node store.
// The zero value is False, so zero-valued predicates are valid ("empty
// header space").
type Ref int32

// Terminal nodes. They are identical for every Engine.
const (
	False Ref = 0
	True  Ref = 1
)

// node is an internal decision node: if variable level is 0 take lo, else hi.
type node struct {
	level int32 // variable index; smaller level = closer to the root
	lo    Ref
	hi    Ref
}

// cacheKey identifies a memoized ITE computation.
type cacheKey struct {
	f, g, h Ref
}

// uniqueKey identifies a decision node (level, lo, hi) in the unique
// table. A struct key is collision-proof for the full Ref range; the
// earlier packed form (level<<48 | lo<<24 | hi) silently collided once
// any child Ref reached 2^24, letting lo bleed into the level bits and
// hi into the lo bits — mk would then return a Ref for an unrelated
// node, breaking the "equal Refs ⇔ equivalent predicates" invariant.
type uniqueKey struct {
	level int32
	lo    Ref
	hi    Ref
}

// nodeKey builds the unique-table key for the node (level, lo, hi).
// All unique-table lookups and insertions must go through this single
// function so the regression tests can exercise it directly.
func nodeKey(level int32, lo, hi Ref) uniqueKey {
	return uniqueKey{level: level, lo: lo, hi: hi}
}

// Arena geometry: 8192-node chunks (96 KB) keep growth increments small
// and never move a node once written.
const (
	chunkBits = 13
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk is one fixed-size block of the node arena.
type chunk [chunkSize]node

// defaultCacheLimit bounds the ITE computed cache of a new Engine, in
// entries. One entry is ~28 bytes of map payload, so the cap holds a
// single engine's cache around 30 MB; engines are per subspace, so
// total cache memory scales with the subspace count, not the workload.
const defaultCacheLimit = 1 << 20

// Engine owns a universe of BDD nodes over a fixed number of Boolean
// variables. Variable i is tested before variable j whenever i < j.
type Engine struct {
	nvars      int
	nnodes     int               // allocated node count (next free arena slot)
	chunks     []*chunk          // node arena
	unique     map[uniqueKey]Ref // unique table
	cache      map[cacheKey]Ref  // ITE computed cache
	cacheLimit int               // max computed-cache entries; <= 0 means unbounded

	ops uint64 // user-level predicate operations (∧, ∨, ¬)

	cacheHits      uint64 // ITE computed-cache hits
	cacheMisses    uint64 // ITE computed-cache misses (recursive computations)
	cacheEvictions uint64 // computed-cache resets forced by the size cap
	gcRuns         uint64 // completed GC passes
	gcReclaimed    uint64 // nodes swept across all GC passes
}

// New returns an Engine over nvars Boolean variables. nvars must be
// positive and at most 32767 so that levels fit the node encoding.
func New(nvars int) *Engine {
	if nvars <= 0 || nvars > 1<<15-1 {
		panic(fmt.Sprintf("bdd: invalid variable count %d", nvars))
	}
	e := &Engine{
		nvars:      nvars,
		chunks:     []*chunk{new(chunk)},
		unique:     make(map[uniqueKey]Ref, 1024),
		cache:      make(map[cacheKey]Ref, 1024),
		cacheLimit: defaultCacheLimit,
	}
	// Terminals occupy slots 0 and 1 with a sentinel level below all
	// variables so cofactor logic never descends into them.
	e.chunks[0][False] = node{level: int32(nvars), lo: False, hi: False}
	e.chunks[0][True] = node{level: int32(nvars), lo: True, hi: True}
	e.nnodes = 2
	return e
}

// node returns the arena entry for r.
func (e *Engine) node(r Ref) node {
	return e.chunks[r>>chunkBits][r&chunkMask]
}

// alloc claims the next arena slot, growing the arena by one chunk when
// it is full, and writes nd into it.
func (e *Engine) alloc(nd node) Ref {
	idx := e.nnodes
	if idx>>chunkBits == len(e.chunks) {
		e.chunks = append(e.chunks, new(chunk))
	}
	e.chunks[idx>>chunkBits][idx&chunkMask] = nd
	e.nnodes++
	return Ref(idx)
}

// NumVars reports the number of Boolean variables in the engine's universe.
func (e *Engine) NumVars() int { return e.nvars }

// NumNodes reports the number of live decision nodes, including terminals.
// It is the engine's memory-footprint proxy used by the benchmarks.
func (e *Engine) NumNodes() int { return e.nnodes }

// Ops reports the cumulative number of user-level predicate operations
// (conjunction, disjunction, negation) performed so far, as counted in
// §3.3 of the paper.
func (e *Engine) Ops() uint64 { return e.ops }

// ResetOps zeroes the predicate-operation counter.
func (e *Engine) ResetOps() { e.ops = 0 }

// CacheStats reports the ITE computed-cache hit and miss totals since
// the engine was created.
func (e *Engine) CacheStats() (hits, misses uint64) {
	return e.cacheHits, e.cacheMisses
}

// CacheEvictions reports how many times the computed cache was dropped
// because it reached its size cap.
func (e *Engine) CacheEvictions() uint64 { return e.cacheEvictions }

// mk returns the canonical node (level, lo, hi), creating it if needed.
func (e *Engine) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := nodeKey(level, lo, hi)
	if r, ok := e.unique[key]; ok {
		return r
	}
	r := e.alloc(node{level: level, lo: lo, hi: hi})
	e.unique[key] = r
	return r
}

// Var returns the predicate that is true exactly when variable i is 1.
func (e *Engine) Var(i int) Ref {
	if i < 0 || i >= e.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, e.nvars))
	}
	return e.mk(int32(i), False, True)
}

// NVar returns the predicate that is true exactly when variable i is 0.
func (e *Engine) NVar(i int) Ref {
	if i < 0 || i >= e.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, e.nvars))
	}
	return e.mk(int32(i), True, False)
}

// ite computes if-then-else(f, g, h) = (f ∧ g) ∨ (¬f ∧ h).
func (e *Engine) ite(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := cacheKey{f, g, h}
	if r, ok := e.cache[key]; ok {
		e.cacheHits++
		return r
	}
	e.cacheMisses++
	nf, ng, nh := e.node(f), e.node(g), e.node(h)
	top := nf.level
	if ng.level < top {
		top = ng.level
	}
	if nh.level < top {
		top = nh.level
	}
	f0, f1 := cofactor(nf, f, top)
	g0, g1 := cofactor(ng, g, top)
	h0, h1 := cofactor(nh, h, top)
	lo := e.ite(f0, g0, h0)
	hi := e.ite(f1, g1, h1)
	r := e.mk(top, lo, hi)
	if e.cacheLimit > 0 && len(e.cache) >= e.cacheLimit {
		// Dropping the cache mid-computation is safe: outer recursion
		// levels recompute their subresults at worst, and node identity
		// is preserved by the unique table.
		e.cache = make(map[cacheKey]Ref, 1024)
		e.cacheEvictions++
	}
	e.cache[key] = r
	return r
}

// cofactor returns the (lo, hi) cofactors of node n (with Ref r) with
// respect to the variable at level top.
func cofactor(n node, r Ref, top int32) (lo, hi Ref) {
	if n.level == top {
		return n.lo, n.hi
	}
	return r, r
}

// And returns a ∧ b and counts one predicate operation.
func (e *Engine) And(a, b Ref) Ref {
	e.ops++
	return e.ite(a, b, False)
}

// Or returns a ∨ b and counts one predicate operation.
func (e *Engine) Or(a, b Ref) Ref {
	e.ops++
	return e.ite(a, True, b)
}

// Not returns ¬a and counts one predicate operation.
func (e *Engine) Not(a Ref) Ref {
	e.ops++
	return e.ite(a, False, True)
}

// Diff returns a ∧ ¬b. It counts as two predicate operations (a negation
// and a conjunction), matching how the paper's pseudocode composes it.
func (e *Engine) Diff(a, b Ref) Ref {
	e.ops += 2
	return e.ite(b, False, a)
}

// Xor returns a ⊕ b, counted as one operation.
func (e *Engine) Xor(a, b Ref) Ref {
	e.ops++
	return e.ite(a, e.ite(b, False, True), b)
}

// Implies reports whether a ⇒ b holds for all assignments, i.e. a ∧ ¬b = ∅.
// It performs one (counted) predicate operation.
func (e *Engine) Implies(a, b Ref) bool {
	e.ops++
	return e.ite(a, b, True) == True
}

// Overlaps reports whether a ∧ b is non-empty. One counted operation.
func (e *Engine) Overlaps(a, b Ref) bool {
	e.ops++
	return e.ite(a, b, False) != False
}

// AndN folds And over all arguments; AndN() = True.
func (e *Engine) AndN(refs ...Ref) Ref {
	r := True
	for _, x := range refs {
		r = e.And(r, x)
		if r == False {
			return False
		}
	}
	return r
}

// OrN folds Or over all arguments; OrN() = False.
func (e *Engine) OrN(refs ...Ref) Ref {
	r := False
	for _, x := range refs {
		r = e.Or(r, x)
		if r == True {
			return True
		}
	}
	return r
}

// Cube returns the conjunction of literals for the variables in vars,
// where bits selects the polarity of each (bit i of bits corresponds to
// vars[i]). vars must be strictly increasing so the cube can be built
// bottom-up in canonical order. Cube does not count predicate operations:
// it is the primitive used to construct match predicates, not a
// model-update operation.
func (e *Engine) Cube(vars []int, bits uint64) Ref {
	if len(vars) > 64 {
		panic(fmt.Sprintf("bdd: Cube with %d variables exceeds the 64-bit polarity mask", len(vars)))
	}
	r := True
	for i := len(vars) - 1; i >= 0; i-- {
		v := vars[i]
		if v < 0 || v >= e.nvars {
			panic(fmt.Sprintf("bdd: variable %d out of range", v))
		}
		if i+1 < len(vars) && vars[i+1] <= v {
			panic("bdd: Cube variables must be strictly increasing")
		}
		if bits&(1<<uint(i)) != 0 {
			r = e.mk(int32(v), False, r)
		} else {
			r = e.mk(int32(v), r, False)
		}
	}
	return r
}

// Eval evaluates predicate r under the given assignment (assignment[i] is
// the value of variable i). Used by tests to cross-check algebra.
func (e *Engine) Eval(r Ref, assignment []bool) bool {
	for r != True && r != False {
		n := e.node(r)
		if assignment[n.level] {
			r = n.hi
		} else {
			r = n.lo
		}
	}
	return r == True
}

// SatCount returns the number of satisfying assignments of r over the full
// variable universe, as a float64 (exact for < 2^53).
func (e *Engine) SatCount(r Ref) float64 {
	memo := make(map[Ref]float64)
	var count func(r Ref, level int32) float64
	count = func(r Ref, level int32) float64 {
		if r == False {
			return 0
		}
		n := e.node(r)
		var sub float64
		if r == True {
			sub = 1
			n.level = int32(e.nvars)
		} else if c, ok := memo[r]; ok {
			sub = c
		} else {
			sub = count(n.lo, n.level+1) + count(n.hi, n.level+1)
			memo[r] = sub
		}
		return sub * pow2(int(n.level)-int(level))
	}
	return count(r, 0)
}

func pow2(n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= 2
	}
	return r
}

// AnySat returns one satisfying assignment of r, or nil if r is False.
func (e *Engine) AnySat(r Ref) []bool {
	if r == False {
		return nil
	}
	a := make([]bool, e.nvars)
	for r != True {
		n := e.node(r)
		if n.lo != False {
			r = n.lo
		} else {
			a[n.level] = true
			r = n.hi
		}
	}
	return a
}

// Exists existentially quantifies the given variables out of r: the
// result is true for an assignment iff some setting of the quantified
// variables satisfies r. vars must be strictly increasing. Counts one
// predicate operation per quantified variable (each is a disjunction of
// cofactors). Used by the header-rewrite extension (a rewrite "field :=
// v" maps predicate p to Exists(p, fieldBits) ∧ (field = v)).
func (e *Engine) Exists(r Ref, vars []int) Ref {
	if len(vars) == 0 {
		return r
	}
	for i, v := range vars {
		if v < 0 || v >= e.nvars {
			panic(fmt.Sprintf("bdd: variable %d out of range", v))
		}
		if i > 0 && vars[i-1] >= v {
			panic("bdd: Exists variables must be strictly increasing")
		}
	}
	e.ops += uint64(len(vars))
	memo := make(map[Ref]Ref)
	var rec func(r Ref, vi int) Ref
	rec = func(r Ref, vi int) Ref {
		if vi >= len(vars) || r == True || r == False {
			return r
		}
		if v, ok := memo[r]; ok {
			return v
		}
		n := e.node(r)
		// Skip quantifier variables above this node's level.
		for vi < len(vars) && int32(vars[vi]) < n.level {
			vi++
		}
		var out Ref
		switch {
		case vi >= len(vars):
			out = r
		case int32(vars[vi]) == n.level:
			lo := rec(n.lo, vi+1)
			hi := rec(n.hi, vi+1)
			out = e.ite(lo, True, hi) // lo ∨ hi
		default:
			out = e.mk(n.level, rec(n.lo, vi), rec(n.hi, vi))
		}
		memo[r] = out
		return out
	}
	return rec(r, 0)
}
