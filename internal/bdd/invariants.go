package bdd

import "fmt"

// CheckInvariants verifies the engine's structural invariants: every
// nonterminal node is non-redundant (lo ≠ hi), respects the fixed
// variable order (children are terminals or test later variables), has
// in-range children, and the unique table hash-conses exactly the
// nonterminal nodes. A violation means canonicity is lost — predicate
// equality by Ref comparison (which the whole verifier relies on) is no
// longer sound.
//
// The walk is O(nodes); the flashcheck layer calls it after each applied
// update block.
func (e *Engine) CheckInvariants() error {
	n := e.nnodes
	for i := 2; i < n; i++ {
		nd := e.node(Ref(i))
		if nd.level < 0 || int(nd.level) >= e.nvars {
			return fmt.Errorf("bdd: node %d tests out-of-range variable %d (nvars=%d)", i, nd.level, e.nvars)
		}
		if nd.lo == nd.hi {
			return fmt.Errorf("bdd: node %d is redundant (lo == hi == %d); reduction broken", i, nd.lo)
		}
		for _, c := range [2]Ref{nd.lo, nd.hi} {
			if c < 0 || int(c) >= n {
				return fmt.Errorf("bdd: node %d has out-of-range child %d", i, c)
			}
			if c >= 2 && e.node(c).level <= nd.level {
				return fmt.Errorf("bdd: node %d (level %d) has child %d at level %d; variable order violated", i, nd.level, c, e.node(c).level)
			}
		}
	}
	if got := len(e.unique); got != n-2 {
		return fmt.Errorf("bdd: unique table holds %d entries for %d nonterminal nodes; hash consing broken", got, n-2)
	}
	return nil
}
