package flash

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/hs"
	"repro/internal/topo"
	"repro/internal/wire"
	"repro/internal/workload"
)

func lineTopo() *topo.Graph {
	g := topo.New()
	for _, n := range []string{"a", "b", "c", "d"} {
		g.AddNode(n, topo.RoleSwitch, -1)
	}
	g.AddLink(g.MustByName("a"), g.MustByName("b"))
	g.AddLink(g.MustByName("b"), g.MustByName("c"))
	g.AddLink(g.MustByName("c"), g.MustByName("d"))
	return g
}

var dst8 = hs.NewLayout(hs.Field{Name: "dst", Bits: 8})

func wildcard(id int64, a Action) Update {
	return Update{Op: fib.Insert, Rule: Rule{ID: id, Pri: 0, Action: a,
		Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Len: 0}}}}
}

func TestModelBuilderBasic(t *testing.T) {
	cfg := Config{Topo: lineTopo(), Layout: dst8, Subspaces: 2}
	b := NewModelBuilder(cfg)
	if b.NumSubspaces() != 2 {
		t.Fatalf("subspaces = %d", b.NumSubspaces())
	}
	blocks := []DeviceBlock{
		{Device: 0, Updates: []Update{wildcard(1, Forward(1))}},
		{Device: 1, Updates: []Update{
			wildcard(1, Drop),
			{Op: fib.Insert, Rule: Rule{ID: 2, Pri: 4, Action: Forward(2),
				Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: 0x80, Len: 1}}}},
		}},
	}
	if err := b.ApplyBlock(blocks); err != nil {
		t.Fatal(err)
	}
	// dst=0x90 (upper half): b forwards to c.
	if a, err := b.ActionAt(1, []uint64{0x90}); err != nil || a != Forward(2) {
		t.Fatalf("ActionAt(1, 0x90) = %v, %v", a, err)
	}
	// dst=0x10 (lower half): b drops.
	if a, err := b.ActionAt(1, []uint64{0x10}); err != nil || a != Drop {
		t.Fatalf("ActionAt(1, 0x10) = %v, %v", a, err)
	}
	if a, err := b.ActionAt(0, []uint64{0x10}); err != nil || a != Forward(1) {
		t.Fatalf("ActionAt(0, 0x10) = %v, %v", a, err)
	}
	if b.StatsSnapshot().ECs < 2 {
		t.Errorf("ECs = %d", b.StatsSnapshot().ECs)
	}
	if b.StatsSnapshot().Transform.Updates == 0 || b.StatsSnapshot().PredicateOps == 0 || b.StatsSnapshot().MemoryNodes == 0 {
		t.Error("stats not accumulated")
	}
}

// TestModelBuilderSubspaceEquivalence: partitioned and unpartitioned
// builders must agree on every point query.
func TestModelBuilderSubspaceEquivalence(t *testing.T) {
	w := workload.LNetAPSP(topo.FabricParams{Pods: 2, TorsPerPod: 2, AggsPerPod: 2, SpinePlanes: 2, SpinePer: 1})
	var blocks []DeviceBlock
	for _, b := range w.Blocks {
		db := DeviceBlock{Device: b.Device}
		for _, u := range b.Updates {
			db.Updates = append(db.Updates, Update{Op: u.Op,
				Rule: Rule{ID: u.Rule.ID, Pri: u.Rule.Pri, Action: u.Rule.Action, Desc: u.Rule.Desc}})
		}
		blocks = append(blocks, db)
	}
	one := NewModelBuilder(Config{Topo: w.Topo, Layout: w.Layout, Subspaces: 1})
	four := NewModelBuilder(Config{Topo: w.Topo, Layout: w.Layout, Subspaces: 4})
	if err := one.ApplyBlock(blocks); err != nil {
		t.Fatal(err)
	}
	if err := four.ApplyBlock(blocks); err != nil {
		t.Fatal(err)
	}
	for h := uint64(0); h < 1<<16; h += 257 {
		for dev := DeviceID(0); dev < DeviceID(w.Topo.N()); dev++ {
			a1, err1 := one.ActionAt(dev, []uint64{h})
			a4, err4 := four.ActionAt(dev, []uint64{h})
			if err1 != nil || err4 != nil {
				t.Fatalf("query errors: %v %v", err1, err4)
			}
			if a1 != a4 {
				t.Fatalf("dev %d header %#x: unpartitioned %v, partitioned %v", dev, h, a1, a4)
			}
		}
	}
}

func TestSystemEarlyDetection(t *testing.T) {
	sys, err := NewSystem(Config{
		Topo:   lineTopo(),
		Layout: dst8,
		Checks: []CheckSpec{{
			Name:    "a-to-d",
			Kind:    CheckReach,
			Expr:    "a .* d",
			Sources: []string{"a"},
			Dest:    "d",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// b drops everything: early unsatisfied from one message.
	results, err := sys.FeedContext(context.Background(), Msg{Device: 1, Epoch: "e1", Updates: []Update{wildcard(1, Drop)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Verdict != VerdictUnsatisfied {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Witness == nil {
		t.Error("missing witness header")
	}
	if results[0].Epoch != "e1" || results[0].Check != "a-to-d" {
		t.Errorf("result metadata wrong: %+v", results[0])
	}
	if results[0].String() == "" {
		t.Error("empty String()")
	}
}

func TestSystemBadChecks(t *testing.T) {
	base := Config{Topo: lineTopo(), Layout: dst8}
	for name, cs := range map[string]CheckSpec{
		"bad expr":   {Name: "x", Kind: CheckReach, Expr: "(", Sources: []string{"a"}},
		"bad source": {Name: "x", Kind: CheckReach, Expr: "a", Sources: []string{"zz"}},
		"bad dest":   {Name: "x", Kind: CheckReach, Expr: "a", Sources: []string{"a"}, Dest: "zz"},
		"bad exit":   {Name: "x", Kind: CheckLoopFree, ExitNodes: []string{"zz"}},
		"bad kind":   {Name: "x", Kind: CheckKind(99)},
	} {
		cfg := base
		cfg.Checks = []CheckSpec{cs}
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestServerOverTCP(t *testing.T) {
	sys, err := NewSystem(Config{
		Topo:   lineTopo(),
		Layout: dst8,
		Checks: []CheckSpec{{
			Name: "loops", Kind: CheckLoopFree, ExitNodes: []string{"d"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []Result
	srv := NewServer(l, sys, func(r Result) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	ag, err := DialAgent(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// b→c then c→b closes a loop for the whole space within epoch e1.
	msgs := []Msg{
		{Device: 1, Epoch: "e1", Updates: []Update{wildcard(1, Forward(2))}},
		{Device: 2, Epoch: "e1", Updates: []Update{wildcard(2, Forward(1))}},
	}
	for _, m := range msgs {
		if err := ag.Send(wire.Msg(m)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no result over TCP")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	ag.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].Loop != LoopFound {
		t.Fatalf("result = %+v, want loop", got[0])
	}
}

func TestBadSubspaceCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two subspaces")
		}
	}()
	NewModelBuilder(Config{Topo: lineTopo(), Layout: dst8, Subspaces: 3})
}

// TestModelBuilderGC: an explicit GC must shed dead nodes after churn
// while preserving every point query, and later updates still apply.
func TestModelBuilderGC(t *testing.T) {
	b := NewModelBuilder(Config{Topo: lineTopo(), Layout: dst8, Subspaces: 2})
	// Install a base plane, then churn: many short-lived rules.
	base := []DeviceBlock{
		{Device: 0, Updates: []Update{wildcard(1, Forward(1))}},
		{Device: 1, Updates: []Update{wildcard(1, Drop)}},
	}
	if err := b.ApplyBlock(base); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		id := int64(100 + round)
		r := Update{Op: fib.Insert, Rule: Rule{ID: id, Pri: 5, Action: Forward(2),
			Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix,
				Value: uint64(round * 7 % 256), Len: 6}}}}
		if err := b.ApplyBlock([]DeviceBlock{{Device: 1, Updates: []Update{r}}}); err != nil {
			t.Fatal(err)
		}
		d := r
		d.Op = fib.Delete
		if err := b.ApplyBlock([]DeviceBlock{{Device: 1, Updates: []Update{d}}}); err != nil {
			t.Fatal(err)
		}
	}
	before := b.StatsSnapshot().MemoryNodes
	// Record queries before collection.
	type q struct {
		dev DeviceID
		h   uint64
	}
	var queries []q
	var want []Action
	for h := uint64(0); h < 256; h += 17 {
		for dev := DeviceID(0); dev < 2; dev++ {
			a, err := b.ActionAt(dev, []uint64{h})
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, q{dev, h})
			want = append(want, a)
		}
	}
	if _, err := b.GC(); err != nil {
		t.Fatal(err)
	}
	after := b.StatsSnapshot().MemoryNodes
	if after >= before {
		t.Errorf("GC did not shrink memory: %d -> %d", before, after)
	}
	for i, qq := range queries {
		a, err := b.ActionAt(qq.dev, []uint64{qq.h})
		if err != nil {
			t.Fatal(err)
		}
		if a != want[i] {
			t.Fatalf("query (%d,%#x) changed after GC: %v -> %v", qq.dev, qq.h, want[i], a)
		}
	}
	// Further updates still work on the collected engines.
	if err := b.ApplyBlock([]DeviceBlock{{Device: 0, Updates: []Update{
		{Op: fib.Insert, Rule: Rule{ID: 999, Pri: 9, Action: Drop,
			Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: 0x40, Len: 2}}}},
	}}}); err != nil {
		t.Fatal(err)
	}
	if a, _ := b.ActionAt(0, []uint64{0x41}); a != Drop {
		t.Fatalf("post-GC update not applied: %v", a)
	}
}

func TestSystemAnycastAndCoverage(t *testing.T) {
	// Diamond: s—{m1,m2}—t (both middle nodes lead to t).
	g := topo.New()
	g.AddNode("s", topo.RoleSwitch, -1)
	g.AddNode("m1", topo.RoleSwitch, -1)
	g.AddNode("m2", topo.RoleSwitch, -1)
	g.AddNode("t", topo.RoleSwitch, -1)
	link := func(a, b string) { g.AddLink(g.MustByName(a), g.MustByName(b)) }
	link("s", "m1")
	link("s", "m2")
	link("m1", "t")
	link("m2", "t")

	sys, err := NewSystem(Config{
		Topo:   g,
		Layout: dst8,
		Checks: []CheckSpec{
			{Name: "any-mid", Kind: CheckAnycast, Expr: "s >", Sources: []string{"s"},
				Dests: []string{"m1", "m2"}},
			{Name: "cover-mid", Kind: CheckReach, Expr: "cover s >", Sources: []string{"s"},
				Dest: ""},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// s forwards everything to m1 only: anycast satisfied once m1
	// delivers... but m1 is a Dest marker, not a deliverer; feed m1 too.
	results, err := sys.FeedContext(context.Background(), Msg{Device: 0, Epoch: "e1",
		Updates: []Update{wildcard(1, Forward(1))}})
	if err != nil {
		t.Fatal(err)
	}
	// cover-mid requires s to forward to both m1 and m2: violated now.
	foundCover := false
	for _, r := range results {
		if r.Check == "cover-mid" && r.Verdict == VerdictUnsatisfied {
			foundCover = true
		}
	}
	if !foundCover {
		t.Fatalf("coverage violation missing from %+v", results)
	}
	// Missing Dests rejected.
	if _, err := NewSystem(Config{Topo: g, Layout: dst8,
		Checks: []CheckSpec{{Name: "x", Kind: CheckMulticast, Expr: "s >", Sources: []string{"s"}}}}); err == nil {
		t.Fatal("multicast without Dests accepted")
	}
}
