package flash

// Soak tier (`make soak`): sustained skewed churn driven through a
// small memory budget. The assertions are the memory-management
// contract: live node counts stay bounded (a sawtooth, never the
// monotone growth of an unbounded engine), reclamation never changes
// the model (probe fingerprints byte-identical to a GC-disabled run),
// counters stay monotone across the hybrid cutover, and GC keeps working
// while a sibling subspace is quarantined.

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/fib"
	"repro/internal/topo"
	"repro/internal/workload"
)

const (
	soakChurn  = 1500 // prefix-mutating churn operations after the insert storm
	soakSeed   = 0x50a4
	soakBudget = 1500 // per-worker live-node watermark for the bounded run
)

// soakWorkload builds a garbage-heavy sequence: the APSP insert storm
// followed by churn that *mutates prefixes* on re-insert. SkewedChurn
// re-inserts identical predicates (hash-consing makes those free); the
// soak tier instead replaces a deleted rule's prefix with a fresh random
// one, so an engine that never reclaims accumulates the dead predicates
// of every churned-out rule.
func soakWorkload() (*workload.Workload, []workload.DevUpdate) {
	w := workload.TraceAPSP("soak", topo.Internet2())
	seq := w.InsertSequence()
	width := w.Layout.FieldBits("dst")
	type live struct {
		dev  fib.DeviceID
		rule fib.Rule
	}
	var pool []live
	for _, du := range seq {
		pool = append(pool, live{du.Dev, du.Update.Rule})
	}
	rng := rand.New(rand.NewSource(soakSeed))
	nextID := int64(1 << 40)
	for n := 0; n < soakChurn; n++ {
		i := rng.Intn(len(pool))
		l := pool[i]
		seq = append(seq, workload.DevUpdate{Dev: l.dev, Update: fib.Update{Op: fib.Delete, Rule: l.rule}})
		nr := l.rule
		nr.ID = nextID
		nextID++
		plen := 6 + rng.Intn(width-5)
		nr.Desc = fib.MatchDesc{{Field: "dst", Kind: fib.MatchPrefix,
			Value: uint64(rng.Intn(1<<uint(plen))) << uint(width-plen), Len: plen}}
		seq = append(seq, workload.DevUpdate{Dev: l.dev, Update: fib.Update{Op: fib.Insert, Rule: nr}})
		pool[i].rule = nr
	}
	return w, seq
}

// soakBlocks converts one workload chunk into builder blocks.
func soakBlocks(batch []fib.Block) []DeviceBlock {
	blocks := make([]DeviceBlock, 0, len(batch))
	for _, fb := range batch {
		db := DeviceBlock{Device: fb.Device}
		for _, u := range fb.Updates {
			db.Updates = append(db.Updates, Update{Op: u.Op,
				Rule: Rule{ID: u.Rule.ID, Pri: u.Rule.Pri, Action: u.Rule.Action, Desc: u.Rule.Desc}})
		}
		blocks = append(blocks, db)
	}
	return blocks
}

// TestSoakMemoryBudgetBounded: under sustained churn a budgeted builder
// must keep every worker's live node count inside budget + one-cycle
// slack while producing a model byte-identical to the unbounded run.
func TestSoakMemoryBudgetBounded(t *testing.T) {
	w, seq := soakWorkload()
	devices := w.Topo.N()
	probes := diffProbes(w, soakSeed*31, 96)

	run := func(budget int) (*ModelBuilder, []int) {
		b := NewModelBuilder(
			WithTopo(w.Topo),
			WithLayout(w.Layout),
			WithSubspaces(diffSubspaces, ""),
			WithWorkers(2),
			WithBatch(8),
			WithMemoryBudget(budget),
		)
		peak := make([]int, b.NumSubspaces())
		for _, batch := range workload.Chunk(seq, 32) {
			if err := b.ApplyBlock(soakBlocks(batch)); err != nil {
				t.Fatal(err)
			}
			for i, n := range b.WorkerNodeCounts() {
				if n > peak[i] {
					peak[i] = n
				}
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		return b, peak
	}

	unbounded, upeak := run(0)
	bounded, bpeak := run(soakBudget)
	t.Logf("peak nodes: unbounded=%v bounded=%v", upeak, bpeak)

	// The fixture must be heavy enough that an unbounded engine blows
	// well past the bound asserted below, or the assertion is vacuous.
	maxUnbounded := 0
	for _, n := range upeak {
		if n > maxUnbounded {
			maxUnbounded = n
		}
	}
	if maxUnbounded <= 2*soakBudget {
		t.Fatalf("fixture too small: unbounded peak %d never exceeds budget %d + slack", maxUnbounded, soakBudget)
	}

	// Bounded run: sawtooth. The watermark is checked after every
	// applied block, so the observable per-block peak may overshoot by
	// at most the growth of one block (one GC cycle of slack); budget
	// again is a generous bound for that.
	for i, n := range bpeak {
		if n > 2*soakBudget {
			t.Errorf("subspace %d: peak %d nodes exceeds budget %d + slack %d", i, n, soakBudget, soakBudget)
		}
	}
	if st := bounded.StatsSnapshot().GC; st.Runs == 0 || st.ReclaimedNodes == 0 {
		t.Fatalf("bounded run never collected (stats %+v)", st)
	}

	// Reclamation must not change the model: probe-level fingerprints
	// byte-identical to the GC-disabled run.
	actionAt := func(b *ModelBuilder) func(fib.DeviceID, uint64) fib.Action {
		return func(dev fib.DeviceID, x uint64) fib.Action {
			a, err := b.ActionAt(dev, []uint64{x})
			if err != nil {
				return fib.None
			}
			return a
		}
	}
	fpU := diffFingerprint(devices, probes, actionAt(unbounded))
	fpB := diffFingerprint(devices, probes, actionAt(bounded))
	if fpU != fpB {
		t.Fatalf("budgeted model fingerprint %#x diverges from unbounded %#x", fpB, fpU)
	}
}

// TestSoakCutoverCountersMonotone: PredicateOps, CacheStats and GCStats
// must never move backwards across the hybrid atom→BDD cutover, for a
// ModelBuilder and a System alike (the subspace core folds the
// discarded atom engine's history into its base).
func TestSoakCutoverCountersMonotone(t *testing.T) {
	w, seq := soakWorkload()
	opts := []Option{
		WithTopo(w.Topo),
		WithLayout(w.Layout),
		WithSubspaces(diffSubspaces, ""),
		WithPredicateMode(PredicateHybrid),
	}
	// A ternary match atoms cannot hold: it cuts every subspace over.
	acl := func(id int64) Update {
		return Update{Op: fib.Insert, Rule: Rule{ID: id, Pri: 99, Action: Drop,
			Desc: MatchDesc{{Field: "dst", Kind: fib.MatchTernary, Value: 1, Mask: 3}}}}
	}
	// cutover runs the fixture's pre-cutover activity, forces the
	// cutover, and returns the snapshots either side of it.
	cutover := func(t *testing.T, stats func() StatsSnapshot, cutovers func() int, gc func(), force func()) (StatsSnapshot, StatsSnapshot) {
		t.Helper()
		gc() // seed GC history so its counters cross the cutover too
		st1 := stats()
		if st1.PredicateOps == 0 || st1.Cache.Misses == 0 {
			t.Fatalf("fixture produced no engine activity (ops=%d misses=%d)", st1.PredicateOps, st1.Cache.Misses)
		}
		if st1.GC.Runs == 0 {
			t.Fatal("explicit GC did not count a run")
		}
		if n := cutovers(); n != 0 {
			t.Fatalf("prefix-only fixture already cut over (%d cutovers)", n)
		}
		force()
		if n := cutovers(); n != diffSubspaces {
			t.Fatalf("ternary rule triggered %d cutovers, want %d", n, diffSubspaces)
		}
		st2 := stats()
		ops1, cs1, gc1 := st1.PredicateOps, st1.Cache, st1.GC
		ops2, cs2, gc2 := st2.PredicateOps, st2.Cache, st2.GC
		if ops2 < ops1 {
			t.Errorf("PredicateOps dropped across the cutover: %d -> %d", ops1, ops2)
		}
		if cs2.Hits < cs1.Hits || cs2.Misses < cs1.Misses || cs2.Evictions < cs1.Evictions {
			t.Errorf("CacheStats dropped across the cutover: %+v -> %+v", cs1, cs2)
		}
		if gc2.Runs < gc1.Runs || gc2.ReclaimedNodes < gc1.ReclaimedNodes {
			t.Errorf("GCStats dropped across the cutover: %+v -> %+v", gc1, gc2)
		}
		return st1, st2
	}

	t.Run("ModelBuilder", func(t *testing.T) {
		b := NewModelBuilder(opts...)
		for _, batch := range workload.Chunk(seq, 64) {
			if err := b.ApplyBlock(soakBlocks(batch)); err != nil {
				t.Fatal(err)
			}
		}
		_, st2 := cutover(t, b.StatsSnapshot, b.PredicateCutovers,
			func() {
				if _, err := b.GC(); err != nil {
					t.Fatal(err)
				}
			},
			func() {
				if err := b.ApplyBlock([]DeviceBlock{{Device: 0, Updates: []Update{acl(1 << 50)}}}); err != nil {
					t.Fatal(err)
				}
			})
		// Counters keep climbing on the converted engines.
		if _, err := b.ActionAt(0, []uint64{0x1234}); err != nil {
			t.Fatal(err)
		}
		if ops3 := b.StatsSnapshot().PredicateOps; ops3 < st2.PredicateOps {
			t.Errorf("PredicateOps dropped after post-cutover work: %d -> %d", st2.PredicateOps, ops3)
		}
	})

	t.Run("System", func(t *testing.T) {
		sys, err := NewSystem(append(opts, WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree}))...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		// A prefix of the stream is ample engine activity, and keeps the
		// flashcheck build fast: every later epoch replays more CE2D
		// history per verifier, each step re-proving its invariants.
		epochs := diffStream(t, seq[:240], 24)
		for _, msgs := range epochs {
			if _, err := sys.FeedBatch(ctx, msgs); err != nil {
				t.Fatal(err)
			}
		}
		epoch := fmt.Sprintf("e%d", len(epochs)+1)
		feed := func(dev DeviceID, id int64) {
			if _, err := sys.FeedContext(ctx, Msg{Device: dev, Epoch: epoch, Updates: []Update{acl(id)}}); err != nil {
				t.Fatal(err)
			}
		}
		_, st2 := cutover(t, sys.StatsSnapshot, sys.PredicateCutovers,
			func() { sys.GC() },
			func() { feed(0, 1<<50) })
		// Counters keep climbing on the converted engines.
		feed(1, 1<<50+1)
		if ops3 := sys.StatsSnapshot().PredicateOps; ops3 < st2.PredicateOps {
			t.Errorf("PredicateOps dropped after post-cutover work: %d -> %d", st2.PredicateOps, ops3)
		}
	})
}

// TestChaosGCUnderPoisoning: automatic GC keeps running on healthy
// subspaces while another subspace is quarantined mid-stream — no
// deadlock, no corruption, and the poisoned worker stays poisoned.
func TestChaosGCUnderPoisoning(t *testing.T) {
	_, seq := soakWorkload()
	epochs := diffStream(t, seq, 24)
	sys, err := NewSystem(
		WithTopo(topo.Internet2()),
		WithLayout(soakLayout()),
		WithSubspaces(diffSubspaces, ""),
		WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree}),
		WithMemoryBudget(soakBudget),
	)
	if err != nil {
		t.Fatal(err)
	}
	var poison atomic.Bool
	sys.SetFeedHook(func(subspace int, _ Msg) {
		if poison.Load() && subspace == 1 {
			panic("soak: injected panic in subspace 1")
		}
	})

	half := len(epochs) / 2
	feed := func(from, to int) int {
		results := 0
		for _, msgs := range epochs[from:to] {
			for _, m := range msgs {
				rs, err := sys.FeedContext(context.Background(), m)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					if r.Subspace == 1 && poison.Load() {
						t.Fatalf("result from quarantined subspace: %+v", r)
					}
					results++
				}
			}
		}
		return results
	}
	feed(0, half)
	poison.Store(true)
	feed(half, len(epochs))

	if got := sys.PoisonedSubspaces(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("poisoned = %v, want [1]", got)
	}
	if st := sys.StatsSnapshot().GC; st.Runs == 0 {
		t.Fatalf("no GC under poisoning (stats %+v)", st)
	}
	// Healthy subspaces kept collecting: their live node counts must not
	// have grown unboundedly past the watermark.
	for i, n := range sys.WorkerNodeCounts() {
		if i == 1 {
			continue // quarantined mid-stream; its engine is frozen as-is
		}
		if n > 2*soakBudget {
			t.Errorf("healthy subspace %d ended at %d nodes (budget %d)", i, n, soakBudget)
		}
	}
}

func soakLayout() *Layout {
	w, _ := soakWorkload()
	return w.Layout
}
