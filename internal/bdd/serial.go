package bdd

import "fmt"

// ExportNodes dumps the decision nodes (everything past the two
// terminals) as flat (level, lo, hi) triples in store order. Because mk
// only ever allocates nodes whose children already exist, store order is
// children-before-parents, so the dump restores with one linear pass.
// The returned slice is a copy — a later GC compaction cannot mutate it.
func (e *Engine) ExportNodes() []int32 {
	n := e.nnodes
	out := make([]int32, 0, 3*(n-2))
	for i := 2; i < n; i++ {
		nd := e.node(Ref(i))
		out = append(out, nd.level, int32(nd.lo), int32(nd.hi))
	}
	return out
}

// NewFromNodes rebuilds an Engine from an ExportNodes dump. The dump is
// fully validated — this is the restore path for checkpoint files, which
// may be torn or hostile, so every structural invariant the engine
// relies on is checked rather than assumed:
//
//   - the dump length is a whole number of triples,
//   - levels lie in [0, nvars),
//   - children precede their parent (lo/hi < the node's own Ref),
//   - no redundant nodes (lo != hi),
//   - node levels strictly decrease toward the root (child level >
//     parent level, terminals sit at the sentinel level nvars),
//   - no duplicate (level, lo, hi) entries (hash consing would be
//     silently broken, violating "equal Refs ⇔ equivalent predicates").
//
// Because restore replays the exact node sequence the donor engine
// built, every Ref recorded elsewhere in a checkpoint stays valid
// against the rebuilt engine.
func NewFromNodes(nvars int, dump []int32) (*Engine, error) {
	if nvars <= 0 || nvars > 1<<15-1 {
		return nil, fmt.Errorf("bdd: restore: invalid variable count %d", nvars)
	}
	if len(dump)%3 != 0 {
		return nil, fmt.Errorf("bdd: restore: dump length %d is not a whole number of node triples", len(dump))
	}
	e := New(nvars)
	n := len(dump) / 3
	for i := 0; i < n; i++ {
		level, lo, hi := dump[3*i], Ref(dump[3*i+1]), Ref(dump[3*i+2])
		r := Ref(i + 2)
		if level < 0 || level >= int32(nvars) {
			return nil, fmt.Errorf("bdd: restore: node %d has level %d outside [0,%d)", r, level, nvars)
		}
		if lo < 0 || lo >= r || hi < 0 || hi >= r {
			return nil, fmt.Errorf("bdd: restore: node %d children (%d,%d) do not precede it", r, lo, hi)
		}
		if lo == hi {
			return nil, fmt.Errorf("bdd: restore: node %d is redundant (lo == hi == %d)", r, lo)
		}
		if e.node(lo).level <= level || e.node(hi).level <= level {
			return nil, fmt.Errorf("bdd: restore: node %d at level %d has a child at an equal or smaller level", r, level)
		}
		key := nodeKey(level, lo, hi)
		if _, dup := e.unique[key]; dup {
			return nil, fmt.Errorf("bdd: restore: duplicate node (%d,%d,%d) at ref %d breaks hash consing", level, lo, hi, r)
		}
		if got := e.alloc(node{level: level, lo: lo, hi: hi}); got != r {
			return nil, fmt.Errorf("bdd: restore: allocation drift (got ref %d, want %d)", got, r)
		}
		e.unique[key] = r
	}
	return e, nil
}

// CheckRef reports whether r is a valid Ref in this engine (a terminal
// or an existing decision node). Restore paths use it to validate refs
// recorded in checkpoint sections against the rebuilt node store.
func (e *Engine) CheckRef(r Ref) bool {
	return r >= 0 && int(r) < e.nnodes
}
