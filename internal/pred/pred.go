// Package pred defines the common predicate-engine interface the hybrid
// representation work introduced: Flash's model and verification layers
// (internal/imt, internal/ce2d, internal/fib) manipulate header-space
// predicates through this interface instead of the concrete
// *bdd.Engine, so a subspace can run on whichever representation fits
// its installed rules — interval atoms (internal/atoms) while every
// rule is a pure prefix interval, the ROBDD engine (internal/bdd) once
// ternary/multi-field/rewrite rules appear.
//
// Refs stay bdd.Ref for both implementations: an opaque dense int32
// handle whose canonicity contract ("equal Refs ⇔ equivalent
// predicates" within one engine) both representations uphold — the
// inverse model's Reduce II step and the CE2D class maps key on Refs
// and rely on exactly that. A Ref is only meaningful against the engine
// that minted it; the flashvet bddref analyzer polices cross-engine
// flow for interface call sites just as it does for concrete ones.
package pred

import "repro/internal/bdd"

// Engine is the operation set Flash's model construction (Fast IMT),
// verification (CE2D), and observability layers need from a predicate
// representation. *bdd.Engine satisfies it natively; *atoms.Engine
// implements it over canonical interval sets.
//
// Both implementations are single-owner: no method is safe for
// concurrent use, counter reads included, so the caller serializes
// every call. Flash does so behind the owning subspace's mutex.
type Engine interface {
	// NumVars reports the width of the Boolean universe (total header
	// bits for the layout both representations compile against).
	NumVars() int
	// NumNodes is the representation's memory-footprint proxy: decision
	// nodes for BDDs, interned interval endpoints for atom sets.
	NumNodes() int

	// Algebra. Every operation returns a canonical Ref and maintains the
	// §3.3 predicate-operation counters.
	And(a, b bdd.Ref) bdd.Ref
	Or(a, b bdd.Ref) bdd.Ref
	Not(a bdd.Ref) bdd.Ref
	Diff(a, b bdd.Ref) bdd.Ref
	Implies(a, b bdd.Ref) bool
	Overlaps(a, b bdd.Ref) bool

	// Point and witness queries. Assignments are indexed by variable
	// (header line bit, most significant first), matching hs.Assignment.
	Eval(r bdd.Ref, assignment []bool) bool
	AnySat(r bdd.Ref) []bool
	SatCount(r bdd.Ref) float64

	// Activity counters. Sampling them is an engine call like any
	// other and needs the owner's serialization.
	Ops() uint64
	CacheStats() (hits, misses uint64)
	CacheEvictions() uint64
	GCRuns() uint64
	ReclaimedNodes() uint64

	// CheckInvariants verifies representation canonicity (flashcheck
	// tier); GC runs a mark-and-sweep over the caller's root set and
	// returns the dense old→new remap.
	CheckInvariants() error
	GC(roots func(yield func(bdd.Ref))) (bdd.Remap, bdd.GCStats)
}
