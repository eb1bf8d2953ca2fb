// Package atoms implements the Delta-net interval-atom predicate engine
// (Horn, Kheradmand, Prasad — NSDI'17), promoted from the
// internal/deltanet baseline into a first-class pred.Engine the hybrid
// representation can run a subspace on.
//
// A predicate is a canonical set of disjoint, sorted, half-open
// intervals on the concatenated header line [0, 2^W): the same encoding
// deltanet.IntervalsFor produces for a match descriptor. Sets are
// hash-consed — interned by their canonical encoding — so "equal Refs ⇔
// equivalent predicates" holds exactly as it does for the BDD engine,
// which is what lets the Fast IMT Reduce II step and the CE2D class
// maps key on Refs without knowing the representation.
//
// On pure longest-prefix workloads every rule is one interval and the
// engine's operations are linear merges over tiny sets — the §5.1
// regime where Delta-net beats BDDs. The moment a ternary or
// multi-field rule appears the interval count explodes
// (deltanet.ErrIntervalExplosion); the hybrid layer then cuts the
// subspace over to the BDD engine rather than paying that blowup here.
//
// Operation counting follows §3.3 of the paper exactly as the BDD
// engine does: one ∧/∨/¬ invocation is one predicate operation,
// regardless of internal interval visits (Diff counts two, matching how
// the paper's pseudocode composes it).
package atoms

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/bdd"
	"repro/internal/deltanet"
	"repro/internal/fib"
	"repro/internal/hs"
)

// MaxVars is the widest header line the atom representation supports:
// interval endpoints are uint64 and the exclusive upper bound 2^W must
// be representable.
const MaxVars = 63

// Engine is an interval-atom predicate engine over a W-bit header line.
// It satisfies pred.Engine: Refs are dense int32 handles into the
// interned-set table, with bdd.False (0) the empty set and bdd.True (1)
// the full line, so zero-valued predicates mean "empty header space"
// under both representations.
//
// Like the BDD engine, an Engine is single-owner: it takes no locks, and
// the caller serializes every call (Flash holds the owning subspace's
// mutex).
type Engine struct {
	nvars int
	full  deltanet.Interval // [0, 2^W)

	sets   [][]deltanet.Interval // Ref → canonical interval set
	intern map[string]bdd.Ref
	nivs   int // total intervals across interned sets (memory proxy)

	// opCache memoizes the ref-valued operations (∧ ∨ ¬ \) keyed by
	// operand refs — sound because hash consing makes Ref equality
	// predicate equality, and the hot Fast IMT loops replay the same
	// operand pairs constantly. Cleared wholesale by GC (refs move) and
	// when it reaches opCacheLimit entries.
	opCache map[opKey]bdd.Ref
	// compileCache memoizes single-field descriptor compilations for one
	// layout (a subspace engine only ever sees one): churn re-installs
	// the same prefixes over and over, and deltanet.IntervalsFor walks
	// the whole layout per call.
	compileCache  map[fib.FieldMatch]bdd.Ref
	compileLayout *hs.Layout

	ops         uint64
	cacheHits   uint64
	cacheMisses uint64
	cacheEvict  uint64
	gcRuns      uint64
	gcReclaimed uint64
}

// opKey identifies one memoized operation application.
type opKey struct {
	op   uint8
	a, b bdd.Ref
}

// Operation discriminants for opKey.
const (
	opAnd = iota
	opOr
	opNot
	opDiff
)

// opCacheLimit bounds the memoized-operation table; reaching it clears
// the table wholesale (the BDD engine's eviction policy).
const opCacheLimit = 1 << 20

// New returns an atom engine over an nvars-bit header line. nvars must
// be in [1, MaxVars]; wider layouts cannot be represented as uint64
// intervals and must use the BDD engine.
func New(nvars int) *Engine {
	if nvars <= 0 || nvars > MaxVars {
		panic(fmt.Sprintf("atoms: invalid line width %d (must be 1..%d)", nvars, MaxVars))
	}
	e := &Engine{
		nvars:   nvars,
		full:    deltanet.Interval{Lo: 0, Hi: uint64(1) << uint(nvars)},
		intern:  make(map[string]bdd.Ref, 64),
		opCache: make(map[opKey]bdd.Ref, 256),
	}
	e.sets = [][]deltanet.Interval{nil, {e.full}}
	e.intern[encode(nil)] = bdd.False
	e.intern[encode(e.sets[bdd.True])] = bdd.True
	e.nivs = 1
	return e
}

// encode serializes a canonical interval set into the intern key.
func encode(ivs []deltanet.Interval) string {
	buf := make([]byte, 16*len(ivs))
	for i, iv := range ivs {
		binary.LittleEndian.PutUint64(buf[16*i:], iv.Lo)
		binary.LittleEndian.PutUint64(buf[16*i+8:], iv.Hi)
	}
	return string(buf)
}

// get returns the interned set for r. Interned slices are immutable.
func (e *Engine) get(r bdd.Ref) []deltanet.Interval {
	if r < 0 || int(r) >= len(e.sets) {
		panic(fmt.Sprintf("atoms: ref %d outside the interned range [0,%d)", r, len(e.sets)))
	}
	return e.sets[r]
}

// interned hash-conses a canonical set and returns its Ref.
func (e *Engine) interned(ivs []deltanet.Interval) bdd.Ref {
	key := encode(ivs)
	if r, ok := e.intern[key]; ok {
		return r
	}
	r := bdd.Ref(len(e.sets))
	e.sets = append(e.sets, ivs)
	e.intern[key] = r
	e.nivs += len(ivs)
	return r
}

// cachedOp runs one memoized ref-valued operation: a hit skips the interval merge and the intern-key encoding
// entirely, which is where the atom engine's time goes on churn
// workloads (the same EC × rule operand pairs recur constantly).
func (e *Engine) cachedOp(op uint8, a, b bdd.Ref, compute func() []deltanet.Interval) bdd.Ref {
	e.ops++
	k := opKey{op: op, a: a, b: b}
	if r, ok := e.opCache[k]; ok {
		e.cacheHits++
		return r
	}
	e.cacheMisses++
	r := e.interned(compute())
	if len(e.opCache) >= opCacheLimit {
		e.cacheEvict += uint64(len(e.opCache))
		clear(e.opCache)
	}
	e.opCache[k] = r
	return r
}

// normalize sorts and merges a scratch interval list into canonical
// form: empty intervals dropped, overlapping or adjacent runs fused.
func normalize(ivs []deltanet.Interval) []deltanet.Interval {
	out := ivs[:0]
	for _, iv := range ivs {
		if iv.Lo < iv.Hi {
			out = append(out, iv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	merged := out[:0]
	for _, iv := range out {
		if n := len(merged); n > 0 && merged[n-1].Hi >= iv.Lo {
			if iv.Hi > merged[n-1].Hi {
				merged[n-1].Hi = iv.Hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	if len(merged) == 0 {
		return nil
	}
	return merged
}

// NumVars reports the header-line width in bits.
func (e *Engine) NumVars() int { return e.nvars }

// NumNodes reports the memory-footprint proxy: total intervals held by
// interned sets, plus the two terminals — the atom analogue of the BDD
// engine's node count.
func (e *Engine) NumNodes() int { return e.nivs + 2 }

// Ops reports cumulative §3.3 predicate operations.
func (e *Engine) Ops() uint64 { return e.ops }

// ResetOps zeroes the predicate-operation counter.
func (e *Engine) ResetOps() { e.ops = 0 }

// CacheStats reports the memoized-operation cache counters (the atom
// analogue of the BDD engine's ITE computed cache).
func (e *Engine) CacheStats() (hits, misses uint64) {
	return e.cacheHits, e.cacheMisses
}

// CacheEvictions reports entries dropped by wholesale cache clears.
func (e *Engine) CacheEvictions() uint64 { return e.cacheEvict }

// GCRuns reports completed GC passes.
func (e *Engine) GCRuns() uint64 { return e.gcRuns }

// ReclaimedNodes reports intervals swept across all GC passes.
func (e *Engine) ReclaimedNodes() uint64 { return e.gcReclaimed }

// And returns a ∧ b (interval intersection); one counted operation.
// Commutative, so operands are ordered to double the cache hit rate.
func (e *Engine) And(a, b bdd.Ref) bdd.Ref {
	if b < a {
		a, b = b, a
	}
	return e.cachedOp(opAnd, a, b, func() []deltanet.Interval {
		return intersect(e.get(a), e.get(b))
	})
}

// Or returns a ∨ b (interval union); one counted operation.
// Commutative, so operands are ordered to double the cache hit rate.
func (e *Engine) Or(a, b bdd.Ref) bdd.Ref {
	if b < a {
		a, b = b, a
	}
	return e.cachedOp(opOr, a, b, func() []deltanet.Interval {
		as, bs := e.get(a), e.get(b)
		scratch := make([]deltanet.Interval, 0, len(as)+len(bs))
		scratch = append(scratch, as...)
		scratch = append(scratch, bs...)
		return normalize(scratch)
	})
}

// Not returns ¬a (complement within [0, 2^W)); one counted operation.
func (e *Engine) Not(a bdd.Ref) bdd.Ref {
	return e.cachedOp(opNot, a, a, func() []deltanet.Interval {
		return complement(e.get(a), e.full)
	})
}

// Diff returns a ∧ ¬b; two counted operations, matching the BDD engine.
func (e *Engine) Diff(a, b bdd.Ref) bdd.Ref {
	e.ops++ // cachedOp counts the second
	return e.cachedOp(opDiff, a, b, func() []deltanet.Interval {
		return intersect(e.get(a), complement(e.get(b), e.full))
	})
}

// Implies reports a ⊆ b; one counted operation.
func (e *Engine) Implies(a, b bdd.Ref) bool {
	e.ops++
	return len(intersect(e.get(a), complement(e.get(b), e.full))) == 0
}

// Overlaps reports a ∩ b ≠ ∅; one counted operation.
func (e *Engine) Overlaps(a, b bdd.Ref) bool {
	e.ops++
	as, bs := e.get(a), e.get(b)
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		if as[i].Hi <= bs[j].Lo {
			i++
		} else if bs[j].Hi <= as[i].Lo {
			j++
		} else {
			return true
		}
	}
	return false
}

// intersect computes the canonical intersection of two canonical sets.
func intersect(as, bs []deltanet.Interval) []deltanet.Interval {
	var out []deltanet.Interval
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		lo := as[i].Lo
		if bs[j].Lo > lo {
			lo = bs[j].Lo
		}
		hi := as[i].Hi
		if bs[j].Hi < hi {
			hi = bs[j].Hi
		}
		if lo < hi {
			out = append(out, deltanet.Interval{Lo: lo, Hi: hi})
		}
		if as[i].Hi <= bs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// complement computes [full.Lo, full.Hi) minus a canonical set.
func complement(as []deltanet.Interval, full deltanet.Interval) []deltanet.Interval {
	var out []deltanet.Interval
	cur := full.Lo
	for _, iv := range as {
		if iv.Lo > cur {
			out = append(out, deltanet.Interval{Lo: cur, Hi: iv.Lo})
		}
		cur = iv.Hi
	}
	if cur < full.Hi {
		out = append(out, deltanet.Interval{Lo: cur, Hi: full.Hi})
	}
	return out
}

// point converts an hs.Assignment (line bits, most significant first)
// to its position on the header line.
func (e *Engine) point(assignment []bool) uint64 {
	var x uint64
	for i := 0; i < e.nvars; i++ {
		x <<= 1
		if assignment[i] {
			x |= 1
		}
	}
	return x
}

// Eval reports whether the assignment's header-line point lies in r.
func (e *Engine) Eval(r bdd.Ref, assignment []bool) bool {
	x := e.point(assignment)
	ivs := e.get(r)
	n := sort.Search(len(ivs), func(i int) bool { return ivs[i].Hi > x })
	return n < len(ivs) && ivs[n].Lo <= x
}

// AnySat returns one satisfying assignment of r, or nil if r is empty.
func (e *Engine) AnySat(r bdd.Ref) []bool {
	ivs := e.get(r)
	if len(ivs) == 0 {
		return nil
	}
	x := ivs[0].Lo
	a := make([]bool, e.nvars)
	for i := 0; i < e.nvars; i++ {
		a[i] = x&(1<<uint(e.nvars-1-i)) != 0
	}
	return a
}

// SatCount returns the number of header-line points r covers.
func (e *Engine) SatCount(r bdd.Ref) float64 {
	var total float64
	for _, iv := range e.get(r) {
		total += float64(iv.Hi - iv.Lo)
	}
	return total
}

// Intervals returns r's canonical interval set. The slice is immutable;
// the hybrid cutover uses it to recompile each live atom predicate into
// BDD form (hs.Space.LineRange per interval).
func (e *Engine) Intervals(r bdd.Ref) []deltanet.Interval { return e.get(r) }

// FromIntervals interns a (possibly unnormalized) interval list.
// Intervals must lie within [0, 2^W).
func (e *Engine) FromIntervals(ivs []deltanet.Interval) bdd.Ref {
	scratch := make([]deltanet.Interval, len(ivs))
	copy(scratch, ivs)
	norm := normalize(scratch)
	for _, iv := range norm {
		if iv.Hi > e.full.Hi {
			panic(fmt.Sprintf("atoms: interval [%d,%d) outside the %d-bit line", iv.Lo, iv.Hi, e.nvars))
		}
	}
	return e.interned(norm)
}

// NumRefs reports how many distinct predicates the engine has interned,
// terminals included. Refs are dense in [0, NumRefs), which is what
// lets the hybrid cutover size a bdd.Remap over the whole atom-era Ref
// range.
func (e *Engine) NumRefs() int { return len(e.sets) }

// Compile converts a match descriptor into an atom predicate via
// deltanet.IntervalsFor. A descriptor that is valid but explodes past
// the interval budget returns deltanet.ErrIntervalExplosion (test with
// errors.Is) — the hybrid layer's signal to cut the subspace over to
// BDDs; any other error is a malformed match.
func (e *Engine) Compile(layout *hs.Layout, d fib.MatchDesc) (bdd.Ref, error) {
	// Single-field descriptors — the only kind the hybrid layer keeps on
	// atoms — are memoized per layout: churn reinstalls the same
	// prefixes constantly and IntervalsFor walks the whole layout each
	// time. The cache is sound only while refs are stable; GC clears it.
	if len(d) == 1 && e.compileLayout == layout {
		if r, ok := e.compileCache[d[0]]; ok {
			return r, nil
		}
	}
	ivs, err := deltanet.IntervalsFor(layout, d)
	if err != nil {
		return bdd.False, err
	}
	r := e.FromIntervals(ivs)
	if len(d) == 1 {
		if e.compileLayout == nil {
			e.compileLayout = layout
			e.compileCache = make(map[fib.FieldMatch]bdd.Ref, 64)
		}
		if e.compileLayout == layout {
			e.compileCache[d[0]] = r
		}
	}
	return r, nil
}

// CheckInvariants verifies canonicity: terminals in their fixed slots,
// every interned set sorted, disjoint, non-adjacent, in-range, and the
// intern table bijective with the set table. A violation means Ref
// equality no longer implies predicate equality.
func (e *Engine) CheckInvariants() error {
	if len(e.sets) < 2 {
		return fmt.Errorf("atoms: terminal sets missing (%d interned)", len(e.sets))
	}
	if len(e.sets[bdd.False]) != 0 {
		return fmt.Errorf("atoms: ref 0 is not the empty set")
	}
	if len(e.sets[bdd.True]) != 1 || e.sets[bdd.True][0] != e.full {
		return fmt.Errorf("atoms: ref 1 is not the full line")
	}
	if len(e.intern) != len(e.sets) {
		return fmt.Errorf("atoms: intern table holds %d keys for %d sets; hash consing broken", len(e.intern), len(e.sets))
	}
	total := 0
	for r, ivs := range e.sets {
		total += len(ivs)
		for i, iv := range ivs {
			if iv.Lo >= iv.Hi {
				return fmt.Errorf("atoms: ref %d interval %d is empty [%d,%d)", r, i, iv.Lo, iv.Hi)
			}
			if iv.Hi > e.full.Hi {
				return fmt.Errorf("atoms: ref %d interval %d exceeds the line [%d,%d)", r, i, iv.Lo, iv.Hi)
			}
			if i > 0 && ivs[i-1].Hi >= iv.Lo {
				return fmt.Errorf("atoms: ref %d intervals %d,%d not disjoint-sorted-merged", r, i-1, i)
			}
		}
		if got, ok := e.intern[encode(ivs)]; !ok || got != bdd.Ref(r) {
			return fmt.Errorf("atoms: ref %d not canonically interned", r)
		}
	}
	if total != e.nivs {
		return fmt.Errorf("atoms: interval count proxy %d, actual %d", e.nivs, total)
	}
	return nil
}

// GC sweeps interned sets not in the caller's root set. Atom sets have
// no children, so reachability is the root set plus the terminals. The
// surviving sets are compacted preserving relative order and the intern
// table is rebuilt; the returned remap follows the bdd.Remap contract
// (dead entries panic on Apply).
func (e *Engine) GC(roots func(yield func(bdd.Ref))) (bdd.Remap, bdd.GCStats) {
	n := len(e.sets)
	live := make([]bool, n)
	live[bdd.False], live[bdd.True] = true, true
	roots(func(r bdd.Ref) {
		if r < 0 || int(r) >= n {
			panic(fmt.Sprintf("atoms: GC root %d outside the interned range [0,%d)", r, n))
		}
		live[r] = true
	})
	remap := make(bdd.Remap, n)
	sets := make([][]deltanet.Interval, 0, n)
	intern := make(map[string]bdd.Ref, n)
	nivs := 0
	for i := 0; i < n; i++ {
		if !live[i] {
			remap[i] = bdd.Ref(-1)
			continue
		}
		r := bdd.Ref(len(sets))
		remap[i] = r
		sets = append(sets, e.sets[i])
		intern[encode(e.sets[i])] = r
		nivs += len(e.sets[i])
	}
	st := bdd.GCStats{Before: n, After: len(sets), Reclaimed: n - len(sets)}
	e.sets, e.intern, e.nivs = sets, intern, nivs
	// Both memo tables hold pre-compaction refs; drop them wholesale.
	clear(e.opCache)
	if e.compileCache != nil {
		clear(e.compileCache)
	}
	e.gcRuns++
	e.gcReclaimed += uint64(st.Reclaimed)
	return remap, st
}
