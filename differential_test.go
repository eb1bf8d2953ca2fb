package flash

// Differential oracle suite: Flash's scheduler/batching matrix is run
// against two independently-implemented baselines (Delta-net* interval
// lists, APKeep* per-update ECs) on seeded, skewed workloads. Every
// configuration must agree on the semantic model (per-device forwarding
// action at seeded probe headers) and on the verdict multiset — the
// work-stealing scheduler and Fast IMT batching may only change *when*
// work happens, never *what* is computed.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/apkeep"
	"repro/internal/bdd"
	"repro/internal/deltanet"
	"repro/internal/fib"
	"repro/internal/hs"
	"repro/internal/pat"
	"repro/internal/topo"
	"repro/internal/wire"
	"repro/internal/workload"
)

const diffSubspaces = 4

// diffWorkload builds a fresh tiny skewed workload. Every engine gets
// its own Workload value (and thus its own BDD engine): the APKeep*
// baseline and Flash both compile into the workload's engine, and
// sharing one would let the systems interfere.
func diffWorkload(seed int64) (*workload.Workload, []workload.DevUpdate) {
	w := workload.TraceAPSP("diff", topo.Internet2())
	return w, w.SkewedChurn(3, diffSubspaces, 0.9, seed)
}

// diffProbes returns seeded random probe headers over the dst field.
func diffProbes(w *workload.Workload, seed int64, n int) []uint64 {
	width := w.Layout.FieldBits("dst")
	rng := rand.New(rand.NewSource(seed))
	probes := make([]uint64, n)
	for i := range probes {
		probes[i] = uint64(rng.Intn(1 << uint(width)))
	}
	return probes
}

// diffFingerprint hashes the full probe×device action table — the
// semantic fingerprint of a data plane model. Two systems with equal
// fingerprints agree on the forwarding behaviour at every probe.
func diffFingerprint(devices int, probes []uint64, actionAt func(dev fib.DeviceID, x uint64) fib.Action) uint64 {
	h := fnv.New64a()
	for d := 0; d < devices; d++ {
		for _, x := range probes {
			fmt.Fprintf(h, "%d/%x/%v\n", d, x, actionAt(fib.DeviceID(d), x))
		}
	}
	return h.Sum64()
}

// diffConfig is one cell of the scheduler/batching/GC/representation
// matrix.
type diffConfig struct {
	workers, batch int
	budget         int           // WithMemoryBudget; 0 disables automatic GC
	mode           PredicateMode // predicate representation strategy
}

// diffConfigs is the scheduler/batching/GC/representation matrix under
// differential test. The budgeted rows force frequent in-engine
// collections (the tiny budget is crossed almost every block), proving
// GC changes when nodes are reclaimed but never what is computed. The
// hybrid rows run the same workload on Delta-net-style interval atoms
// (the churn workloads are pure prefix, so the atom path stays live
// end-to-end), proving representation changes cost but never verdicts.
func diffConfigs() []diffConfig {
	var cfgs []diffConfig
	for _, wk := range []int{1, 4, runtime.NumCPU()} {
		for _, bt := range []int{1, 16} {
			cfgs = append(cfgs, diffConfig{workers: wk, batch: bt})
		}
	}
	cfgs = append(cfgs,
		diffConfig{workers: 1, batch: 1, budget: 64},
		diffConfig{workers: 4, batch: 16, budget: 64},
		// A budget below the live state: GC runs after every block while
		// the batcher still buffers updates, which must survive it.
		diffConfig{workers: 4, batch: 16, budget: 8},
		diffConfig{workers: 1, batch: 1, mode: PredicateHybrid},
		diffConfig{workers: 4, batch: 16, mode: PredicateHybrid},
		// Atoms are far more compact than BDD nodes (that is the point of
		// the hybrid mode), so the budget that forces a collection every
		// few blocks on BDDs must be far tighter here to trip at all.
		diffConfig{workers: 4, batch: 16, budget: 8, mode: PredicateHybrid},
	)
	return cfgs
}

// TestDifferentialModelOracle: the final EC model produced by Flash
// under every workers×batch configuration must match the Delta-net*
// and APKeep* baselines probe-for-probe.
func TestDifferentialModelOracle(t *testing.T) {
	for _, seed := range []int64{0xd1ff1, 0xd1ff2} {
		// Delta-net* baseline: sorted interval lists, no BDDs at all.
		dw, dseq := diffWorkload(seed)
		devices := dw.Topo.N()
		probes := diffProbes(dw, seed*31, 96)
		dn := deltanet.New(dw.Layout)
		for _, du := range dseq {
			if err := dn.Apply(du.Dev, du.Update); err != nil {
				t.Fatal(err)
			}
		}
		want := diffFingerprint(devices, probes, dn.ActionAt)

		// APKeep* baseline: per-update EC maintenance on its own engine.
		aw, aseq := diffWorkload(seed)
		primary := aw.Layout.Fields()[0]
		store := pat.NewStore()
		ap := apkeep.New(aw.Space.E, store, bdd.True, primary.Name, primary.Bits)
		for _, du := range aseq {
			if err := ap.Apply(du.Dev, du.Update); err != nil {
				t.Fatal(err)
			}
		}
		apFP := diffFingerprint(devices, probes, func(dev fib.DeviceID, x uint64) fib.Action {
			vec, ok := ap.Model().Lookup(aw.Space.E, aw.Space.Assignment(hs.Header{x}))
			if !ok {
				return fib.None
			}
			return store.Get(vec, dev)
		})
		if apFP != want {
			t.Fatalf("seed %#x: APKeep* disagrees with Delta-net* (oracle baselines diverge)", seed)
		}

		for _, cfg := range diffConfigs() {
			fw, fseq := diffWorkload(seed)
			b := NewModelBuilder(
				WithTopo(fw.Topo),
				WithLayout(fw.Layout),
				WithSubspaces(diffSubspaces, ""),
				WithWorkers(cfg.workers),
				WithBatch(cfg.batch),
				WithMemoryBudget(cfg.budget),
				WithPredicateMode(cfg.mode),
			)
			for _, batch := range workload.Chunk(fseq, 32) {
				blocks := make([]DeviceBlock, 0, len(batch))
				for _, fb := range batch {
					db := DeviceBlock{Device: fb.Device}
					for _, u := range fb.Updates {
						db.Updates = append(db.Updates, Update{Op: u.Op,
							Rule: Rule{ID: u.Rule.ID, Pri: u.Rule.Pri, Action: u.Rule.Action, Desc: u.Rule.Desc}})
					}
					blocks = append(blocks, db)
				}
				if err := b.ApplyBlock(blocks); err != nil {
					t.Fatal(err)
				}
			}
			got := diffFingerprint(devices, probes, func(dev fib.DeviceID, x uint64) fib.Action {
				a, err := b.ActionAt(dev, []uint64{x})
				if err != nil {
					return fib.None
				}
				return a
			})
			if got != want {
				t.Fatalf("seed %#x workers=%d batch=%d budget=%d mode=%s: Flash model diverges from baselines",
					seed, cfg.workers, cfg.batch, cfg.budget, cfg.mode)
			}
			if cfg.mode == PredicateHybrid {
				if n := b.PredicateCutovers(); n != 0 {
					t.Fatalf("seed %#x workers=%d batch=%d budget=%d: prefix-only churn forced %d atom cutovers",
						seed, cfg.workers, cfg.batch, cfg.budget, n)
				}
				for i, m := range b.PredicateModes() {
					if m != "atoms" {
						t.Fatalf("seed %#x workers=%d batch=%d budget=%d: subspace %d on %q, want atoms (hybrid row degenerated)",
							seed, cfg.workers, cfg.batch, cfg.budget, i, m)
					}
				}
			}
		}
	}
}

// diffStream converts a flat update sequence into CE2D wire messages:
// consecutive updates are grouped into epochs, with at most one message
// per device per epoch (the CE2D contract).
func diffStream(t *testing.T, seq []workload.DevUpdate, perEpoch int) [][]Msg {
	t.Helper()
	var epochs [][]Msg
	for start, e := 0, 1; start < len(seq); e++ {
		end := start + perEpoch
		if end > len(seq) {
			end = len(seq)
		}
		byDev := make(map[fib.DeviceID][]fib.Update)
		var order []fib.DeviceID
		for _, du := range seq[start:end] {
			if _, ok := byDev[du.Dev]; !ok {
				order = append(order, du.Dev)
			}
			byDev[du.Dev] = append(byDev[du.Dev], du.Update)
		}
		var msgs []Msg
		for _, dev := range order {
			m, err := wire.FromFib(dev, fmt.Sprintf("e%d", e), byDev[dev])
			if err != nil {
				t.Fatal(err)
			}
			msgs = append(msgs, m)
		}
		epochs = append(epochs, msgs)
		start = end
	}
	return epochs
}

// TestDifferentialVerdictOracle: the verdict multiset and final model
// fingerprint must be identical across the whole workers×batch matrix,
// including against an APKeep-style per-update reference configuration.
func TestDifferentialVerdictOracle(t *testing.T) {
	const seed = 0xd1ff3
	_, seq := diffWorkload(seed)
	rw, _ := diffWorkload(seed)
	epochs := diffStream(t, seq, 24)
	lastEpoch := fmt.Sprintf("e%d", len(epochs))

	newSys := func(extra ...Option) *System {
		opts := []Option{
			WithTopo(rw.Topo),
			WithLayout(rw.Layout),
			WithSubspaces(diffSubspaces, ""),
			WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree}),
		}
		sys, err := NewSystem(append(opts, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	run := func(sys *System, gulp bool) ([]string, string) {
		var verdicts []string
		for _, msgs := range epochs {
			if gulp {
				rs, err := sys.FeedBatch(context.Background(), msgs)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					verdicts = append(verdicts, r.String())
				}
				continue
			}
			for _, m := range msgs {
				rs, err := sys.FeedContext(context.Background(), m)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					verdicts = append(verdicts, r.String())
				}
			}
		}
		sort.Strings(verdicts)
		fp, err := sys.ModelFingerprint(lastEpoch)
		if err != nil {
			t.Fatal(err)
		}
		return verdicts, fp
	}

	// Reference: per-update processing (the APKeep-style ablation), no
	// batching, sequential feed.
	wantVerdicts, wantFP := run(newSys(WithPerUpdate(true), WithWorkers(1)), false)
	if len(wantVerdicts) == 0 {
		t.Fatal("reference run produced no verdicts")
	}

	for _, cfg := range diffConfigs() {
		sys := newSys(WithWorkers(cfg.workers), WithBatch(cfg.batch), WithMemoryBudget(cfg.budget), WithPredicateMode(cfg.mode))
		gotVerdicts, gotFP := run(sys, true)
		if gotFP != wantFP {
			t.Fatalf("workers=%d batch=%d budget=%d mode=%s: model fingerprint diverges from per-update reference",
				cfg.workers, cfg.batch, cfg.budget, cfg.mode)
		}
		if cfg.mode == PredicateHybrid {
			// The churn workload is pure prefix: the atom representation
			// must have survived the whole run, or the row silently
			// degenerated into another BDD row and proved nothing.
			if n := sys.PredicateCutovers(); n != 0 {
				t.Fatalf("workers=%d batch=%d budget=%d: prefix-only churn forced %d atom cutovers", cfg.workers, cfg.batch, cfg.budget, n)
			}
			for i, m := range sys.PredicateModes() {
				if m != "atoms" {
					t.Fatalf("workers=%d batch=%d budget=%d: subspace %d on %q, want atoms", cfg.workers, cfg.batch, cfg.budget, i, m)
				}
			}
		}
		if len(gotVerdicts) != len(wantVerdicts) {
			t.Fatalf("workers=%d batch=%d budget=%d: %d verdicts, reference has %d",
				cfg.workers, cfg.batch, cfg.budget, len(gotVerdicts), len(wantVerdicts))
		}
		for i := range wantVerdicts {
			if gotVerdicts[i] != wantVerdicts[i] {
				t.Fatalf("workers=%d batch=%d budget=%d: verdict multiset diverges at %d:\n  got:  %s\n  want: %s",
					cfg.workers, cfg.batch, cfg.budget, i, gotVerdicts[i], wantVerdicts[i])
			}
		}
		if cfg.budget > 0 && sys.StatsSnapshot().GC.Runs == 0 {
			t.Fatalf("workers=%d batch=%d budget=%d: budgeted run never collected — the GC path was not exercised",
				cfg.workers, cfg.batch, cfg.budget)
		}
	}
}

// diffHeaderProbes returns seeded random probe headers spanning every
// layout field (diffProbes only covers single-field dst layouts).
func diffHeaderProbes(lay *hs.Layout, seed int64, n int) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	fields := lay.Fields()
	probes := make([][]uint64, n)
	for i := range probes {
		h := make([]uint64, len(fields))
		for j, f := range fields {
			h[j] = uint64(rng.Int63n(1 << uint(f.Bits)))
		}
		probes[i] = h
	}
	return probes
}

// TestDifferentialHybridGenerators runs every workload generator through
// a BDD-mode and a hybrid-mode ModelBuilder and requires identical model
// fingerprints. The pure-prefix generators (trace/LNet APSP) must keep
// the atom representation live end-to-end; the generators that emit
// multi-field (LNet-ecmp) or ternary (LNet-smr) rules must instead trip
// the one-way cutover guard mid-stream — so this sweep covers both
// steady-state representations and the conversion itself on every
// workload shape the repo can generate.
func TestDifferentialHybridGenerators(t *testing.T) {
	small := topo.FabricParams{Pods: 2, TorsPerPod: 2, AggsPerPod: 2, SpinePlanes: 2, SpinePer: 1}
	gens := []struct {
		name   string
		make   func() *workload.Workload
		prefix bool // pure single-field prefix rules: atoms must survive
	}{
		{"trace-apsp", func() *workload.Workload { return workload.TraceAPSP("diff", topo.Internet2()) }, true},
		{"lnet-apsp", func() *workload.Workload { return workload.LNetAPSP(small) }, true},
		{"lnet-ecmp", func() *workload.Workload { return workload.LNetECMP(small) }, false},
		{"lnet-smr", func() *workload.Workload { return workload.LNetSMR(small) }, false},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			run := func(mode PredicateMode) (uint64, *ModelBuilder) {
				w := g.make()
				b := NewModelBuilder(
					WithTopo(w.Topo),
					WithLayout(w.Layout),
					WithSubspaces(diffSubspaces, ""),
					WithPredicateMode(mode),
				)
				for _, batch := range workload.Chunk(w.InsertSequence(), 32) {
					blocks := make([]DeviceBlock, 0, len(batch))
					for _, fb := range batch {
						db := DeviceBlock{Device: fb.Device}
						for _, u := range fb.Updates {
							db.Updates = append(db.Updates, Update{Op: u.Op,
								Rule: Rule{ID: u.Rule.ID, Pri: u.Rule.Pri, Action: u.Rule.Action, Desc: u.Rule.Desc}})
						}
						blocks = append(blocks, db)
					}
					if err := b.ApplyBlock(blocks); err != nil {
						t.Fatal(err)
					}
				}
				probes := diffHeaderProbes(w.Layout, 0xbeef, 64)
				h := fnv.New64a()
				for d := 0; d < w.Topo.N(); d++ {
					for _, x := range probes {
						a, err := b.ActionAt(fib.DeviceID(d), x)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(h, "%d/%x/%v\n", d, x, a)
					}
				}
				return h.Sum64(), b
			}
			want, _ := run(PredicateBDD)
			got, hb := run(PredicateHybrid)
			if got != want {
				t.Fatalf("hybrid model diverges from BDD model on %s", g.name)
			}
			modes, cutovers := hb.PredicateModes(), hb.PredicateCutovers()
			if g.prefix {
				if cutovers != 0 {
					t.Fatalf("pure-prefix generator forced %d cutovers", cutovers)
				}
				for i, m := range modes {
					if m != "atoms" {
						t.Fatalf("subspace %d on %q, want atoms (hybrid run degenerated)", i, m)
					}
				}
			} else {
				if cutovers == 0 {
					t.Fatalf("non-prefix generator never tripped the cutover guard (modes %v)", modes)
				}
				for i, m := range modes {
					if m != "bdd" {
						t.Fatalf("subspace %d still on %q after non-prefix rules", i, m)
					}
				}
			}
		})
	}
}

// TestDifferentialHybridMidstreamCutover is the bug-class regression at
// the heart of the hybrid design: a System ingests prefix-only churn on
// atoms across many epochs, then one ACL (ternary) rule arrives and
// every subspace must convert its entire live state — universe, check
// scopes, queued messages, per-epoch verifiers — to a fresh BDD engine
// without changing a single verdict or the model fingerprint.
func TestDifferentialHybridMidstreamCutover(t *testing.T) {
	const seed = 0xc0701
	_, seq := diffWorkload(seed)
	rw, _ := diffWorkload(seed)
	prefixEpochs := diffStream(t, seq, 24)
	aclEpoch := fmt.Sprintf("e%d", len(prefixEpochs)+1)
	acl, err := wire.FromFib(0, aclEpoch, []fib.Update{{
		Op: fib.Insert,
		Rule: fib.Rule{ID: 99999, Pri: 99, Action: fib.Drop,
			Desc: fib.MatchDesc{{Field: "dst", Kind: fib.MatchTernary, Value: 1, Mask: 3}}},
	}})
	if err != nil {
		t.Fatal(err)
	}

	run := func(mode PredicateMode) ([]string, string) {
		sys, err := NewSystem(
			WithTopo(rw.Topo),
			WithLayout(rw.Layout),
			WithSubspaces(diffSubspaces, ""),
			WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree}),
			WithPredicateMode(mode),
		)
		if err != nil {
			t.Fatal(err)
		}
		var verdicts []string
		feed := func(msgs []Msg) {
			rs, ferr := sys.FeedBatch(context.Background(), msgs)
			if ferr != nil {
				t.Fatal(ferr)
			}
			for _, r := range rs {
				verdicts = append(verdicts, r.String())
			}
		}
		for _, msgs := range prefixEpochs {
			feed(msgs)
		}
		if mode == PredicateHybrid {
			// All churn so far was pure prefix: the cutover must not have
			// fired yet, or this test is not exercising a mid-stream flip.
			if n := sys.PredicateCutovers(); n != 0 {
				t.Fatalf("hybrid system cut over during prefix churn (%d cutovers)", n)
			}
		}
		feed([]Msg{acl})
		if mode == PredicateHybrid {
			if n := sys.PredicateCutovers(); n != diffSubspaces {
				t.Fatalf("ACL rule triggered %d cutovers, want %d (one per subspace)", n, diffSubspaces)
			}
			for i, m := range sys.PredicateModes() {
				if m != "bdd" {
					t.Fatalf("subspace %d still on %q after ACL rule", i, m)
				}
			}
		}
		sort.Strings(verdicts)
		fp, ferr := sys.ModelFingerprint(aclEpoch)
		if ferr != nil {
			t.Fatal(ferr)
		}
		return verdicts, fp
	}

	wantVerdicts, wantFP := run(PredicateBDD)
	gotVerdicts, gotFP := run(PredicateHybrid)
	if len(wantVerdicts) == 0 {
		t.Fatal("reference run produced no verdicts")
	}
	if gotFP != wantFP {
		t.Fatal("post-cutover model fingerprint diverges from the all-BDD run")
	}
	if len(gotVerdicts) != len(wantVerdicts) {
		t.Fatalf("hybrid run produced %d verdicts, all-BDD run %d", len(gotVerdicts), len(wantVerdicts))
	}
	for i := range wantVerdicts {
		if gotVerdicts[i] != wantVerdicts[i] {
			t.Fatalf("verdict multiset diverges at %d:\n  got:  %s\n  want: %s", i, gotVerdicts[i], wantVerdicts[i])
		}
	}
}
