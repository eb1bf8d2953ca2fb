package flash

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/fib"
)

// reachSys builds a small system with an a→d reachability check over
// the line topology.
func reachSys(t *testing.T, opts ...Option) *System {
	t.Helper()
	base := []Option{
		WithTopo(lineTopo()),
		WithLayout(dst8),
		WithChecks(CheckSpec{
			Name: "a-to-d", Kind: CheckReach,
			Expr: "a .* d", Sources: []string{"a"}, Dest: "d",
		}),
	}
	sys, err := NewSystem(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// feedLine synchronizes the whole a→b→c→d chain for one epoch, with b's
// next hop configurable (the check's fate pivots on b). Rule IDs and
// priorities are derived from the epoch ("e1", "e2", …) so successive
// epochs insert fresh rules that shadow the previous epoch's.
func feedLine(t *testing.T, sys *System, epoch string, bAction Action) []Result {
	t.Helper()
	var e int
	if _, err := fmt.Sscanf(epoch, "e%d", &e); err != nil {
		t.Fatalf("feedLine epoch %q: %v", epoch, err)
	}
	var out []Result
	actions := []Action{Forward(1), bAction, Forward(3), Forward(4)}
	for d, action := range actions {
		dev := DeviceID(d)
		u := wildcard(int64(10*e)+int64(d), action)
		u.Rule.Pri = int32(e)
		rs, err := sys.FeedContext(context.Background(), Msg{
			Device: dev, Epoch: epoch, Updates: []Update{u},
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs...)
	}
	return out
}

func resultStrings(rs []Result) []string {
	out := make([]string, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.String())
	}
	sort.Strings(out)
	return out
}

func TestSnapshotEmptySystem(t *testing.T) {
	sys := reachSys(t)
	sn, err := sys.Snapshot()
	if !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("Snapshot on unfed system: err = %v, want ErrNoEpoch", err)
	}
	if sn != nil {
		sn.Release()
	}
}

func TestWhatIfDetectsChange(t *testing.T) {
	sys := reachSys(t)
	live := feedLine(t, sys, "e1", Forward(2))
	if len(live) == 0 || live[len(live)-1].Verdict != VerdictSatisfied {
		t.Fatalf("live verdict = %+v, want satisfied", live)
	}

	// Hypothesis: b starts dropping. The what-if must report unsatisfied
	// without touching live state or publishing to subscribers.
	rs, err := sys.WhatIf(context.Background(), []DeviceBlock{
		{Device: 1, Updates: []Update{{Op: fib.Insert,
			Rule: Rule{ID: 99, Pri: 10, Action: Drop,
				Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Len: 0}}}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rs {
		if r.Check == "a-to-d" && r.Verdict == VerdictUnsatisfied {
			found = true
		}
	}
	if !found {
		t.Fatalf("what-if results %v missing unsatisfied a-to-d", resultStrings(rs))
	}
	// Live model unchanged: the published verdict is still satisfied.
	for _, vs := range sys.Verdicts() {
		if vs.Spec == "a-to-d" && vs.Verdict != VerdictSatisfied {
			t.Fatalf("live verdict mutated by what-if: %+v", vs)
		}
	}
	// And a fresh what-if with no overlapping hypothesis reproduces the
	// live satisfied verdict.
	rs2, err := sys.WhatIf(context.Background(), []DeviceBlock{
		{Device: 0, Updates: []Update{{Op: fib.Insert,
			Rule: Rule{ID: 7, Pri: 5, Action: Forward(1),
				Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Len: 0}}}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs2 {
		if r.Check == "a-to-d" && r.Verdict != VerdictSatisfied {
			t.Fatalf("non-breaking what-if flipped the verdict: %v", resultStrings(rs2))
		}
	}
}

// TestSnapshotSurvivesGC is the acceptance regression: a pinned snapshot
// must keep answering what-ifs identically across an explicit GC cycle
// that reclaims the epoch it captured.
func TestSnapshotSurvivesGC(t *testing.T) {
	sys := reachSys(t, WithSubspaces(2, ""))
	feedLine(t, sys, "e1", Forward(2))

	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if len(snap.Epochs()) == 0 {
		t.Fatal("snapshot captured no epochs")
	}

	hypo := []DeviceBlock{
		{Device: 1, Updates: []Update{{Op: fib.Insert,
			Rule: Rule{ID: 99, Pri: 10, Action: Drop,
				Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: 0x80, Len: 1}}}}}},
	}
	before, err := snap.Apply(context.Background(), hypo)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("what-if produced no results")
	}

	// Churn the live model across several epochs (fresh rule IDs, rising
	// priority, shifting prefixes) so the e1 nodes the snapshot depends
	// on are garbage from the live model's view, then collect.
	for e := 2; e <= 6; e++ {
		for dev := DeviceID(0); dev < 4; dev++ {
			action := Forward(2)
			if e%2 == 0 {
				action = Drop
			}
			if _, err := sys.FeedContext(context.Background(), Msg{
				Device: dev, Epoch: fmt.Sprintf("e%d", e),
				Updates: []Update{{Op: fib.Insert, Rule: Rule{
					ID: int64(100*e) + int64(dev), Pri: int32(e), Action: action,
					Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: uint64(e) << 4, Len: 4}},
				}}},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if reclaimed := sys.GC(); reclaimed == 0 {
		t.Fatal("churn produced no garbage — the GC cycle this test guards never ran")
	}

	after, err := snap.Apply(context.Background(), hypo)
	if err != nil {
		t.Fatalf("what-if after GC: %v", err)
	}
	b, a := resultStrings(before), resultStrings(after)
	if len(a) != len(b) {
		t.Fatalf("what-if changed across GC: %d results before, %d after", len(b), len(a))
	}
	for i := range b {
		if a[i] != b[i] {
			t.Fatalf("what-if result diverged across GC:\n  before: %s\n  after:  %s", b[i], a[i])
		}
	}

	// Released snapshots refuse further transactions...
	snap.Release()
	if !snap.Released() {
		t.Fatal("Released() false after Release")
	}
	if _, err := snap.Apply(context.Background(), hypo); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("Apply after Release: err = %v, want ErrSnapshotReleased", err)
	}
	snap.Release() // idempotent

	// ...and their pins are actually gone: a second collection runs with
	// zero snapshots registered.
	if n := sys.StatsSnapshot().Snapshots; n != 0 {
		t.Fatalf("live snapshot count after Release = %d", n)
	}
	sys.GC()
}

func TestWhatIfCanceledContext(t *testing.T) {
	sys := reachSys(t)
	feedLine(t, sys, "e1", Forward(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.WhatIf(ctx, []DeviceBlock{
		{Device: 1, Updates: []Update{wildcard(9, Drop)}},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWhatIfDifferential is the acceptance differential: a live ingest
// stream must produce byte-identical model fingerprints and verdict
// multisets whether or not what-if transactions run concurrently.
func TestWhatIfDifferential(t *testing.T) {
	const seed = 0x5eed5
	_, seq := diffWorkload(seed)
	w, _ := diffWorkload(seed)
	epochs := diffStream(t, seq, 24)
	lastEpoch := fmt.Sprintf("e%d", len(epochs))

	newSys := func() *System {
		sys, err := NewSystem(
			WithTopo(w.Topo),
			WithLayout(w.Layout),
			WithSubspaces(diffSubspaces, ""),
			WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree}),
		)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	run := func(sys *System, whatifs bool) ([]string, string) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if whatifs {
			// Hammer what-if transactions for the whole ingest; every one
			// forks from a live snapshot while FeedBatch runs.
			wg.Add(1)
			go func() {
				defer wg.Done()
				hypo := []DeviceBlock{{Device: 3, Updates: []Update{
					{Op: fib.Insert, Rule: Rule{ID: 12345, Pri: 99, Action: Drop,
						Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Len: 0}}}},
				}}}
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := sys.WhatIf(context.Background(), hypo); err != nil &&
						!errors.Is(err, ErrNoEpoch) {
						t.Errorf("concurrent what-if: %v", err)
						return
					}
				}
			}()
		}
		var verdicts []string
		for _, msgs := range epochs {
			rs, err := sys.FeedBatch(context.Background(), msgs)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				verdicts = append(verdicts, r.String())
			}
		}
		close(stop)
		wg.Wait()
		sort.Strings(verdicts)
		fp, err := sys.ModelFingerprint(lastEpoch)
		if err != nil {
			t.Fatal(err)
		}
		return verdicts, fp
	}

	wantV, wantFP := run(newSys(), false)
	gotV, gotFP := run(newSys(), true)
	if gotFP != wantFP {
		t.Fatal("model fingerprint diverges when what-ifs run concurrently with ingest")
	}
	if len(gotV) != len(wantV) {
		t.Fatalf("verdict multiset size: %d with what-ifs, %d without", len(gotV), len(wantV))
	}
	for i := range wantV {
		if gotV[i] != wantV[i] {
			t.Fatalf("verdict multiset diverges at %d:\n  with:    %s\n  without: %s", i, gotV[i], wantV[i])
		}
	}
}

// TestWhatIfErrorPathReleasesCapture: a what-if whose hypothetical
// block fails to apply must not pin the forked model — after the error
// return and Release, a forced GC reclaims the fork's nodes. Regression
// for the snapleak audit: WhatIf releases its capture on every error
// return, and whatIf's transient fork dies with the worker mutex.
func TestWhatIfErrorPathReleasesCapture(t *testing.T) {
	sys := reachSys(t)
	feedLine(t, sys, "e1", Forward(2))

	// The block first inserts a rule with a novel prefix — compiling it
	// mints fresh BDD nodes on the fork — then deletes a rule the
	// captured model never held, failing ApplyBlock after the fork has
	// allocated.
	novel := Update{Op: fib.Insert, Rule: Rule{ID: 998, Pri: 9, Action: Drop,
		Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: 0xA5, Len: 8}}}}
	miss := wildcard(999, Drop)
	miss.Op = fib.Delete
	blocks := []DeviceBlock{{Device: 1, Updates: []Update{novel, miss}}}
	if _, err := sys.WhatIf(context.Background(), blocks); err == nil {
		t.Fatal("WhatIf deleting a missing rule: expected error")
	}
	if n := sys.snapCount.Load(); n != 0 {
		t.Fatalf("snapshots still registered after failed WhatIf: %d", n)
	}

	// The failed fork plus verifier state is garbage now; a forced
	// collection must find it.
	before := sys.StatsSnapshot().GC
	if reclaimed := sys.GC(); reclaimed <= 0 {
		t.Fatalf("GC after failed WhatIf reclaimed %d nodes, want > 0", reclaimed)
	}
	after := sys.StatsSnapshot().GC
	if after.Runs <= before.Runs || after.ReclaimedNodes <= before.ReclaimedNodes {
		t.Fatalf("GCStats did not advance: %+v then %+v", before, after)
	}

	// The failure left live verification untouched.
	rs, err := sys.WhatIf(context.Background(), []DeviceBlock{{Device: 1,
		Updates: []Update{{Op: fib.Insert, Rule: Rule{ID: 100, Pri: 10, Action: Drop,
			Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Len: 0}}}}}}})
	if err != nil {
		t.Fatalf("WhatIf after failed WhatIf: %v", err)
	}
	if len(rs) == 0 {
		t.Fatal("WhatIf after failed WhatIf returned no results")
	}
}
