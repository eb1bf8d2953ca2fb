package main

// The gc experiment measures the in-engine BDD garbage collector: a
// prefix-mutating churn workload (every re-insert carries a fresh
// random prefix, so an engine that never reclaims accumulates every
// churned-out predicate) is applied both unbounded and under a memory
// budget. Recorded per row: peak and steady-state live node counts,
// collection counts and reclaimed totals, the GC pause distribution
// (p50/p95), and the cost of one full-state collection.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	flash "repro"
	"repro/internal/exps"
	"repro/internal/fib"
	"repro/internal/obs"
	"repro/internal/workload"
)

// gcEntry is one row of the benchmark trajectory (it shares
// BENCH_flash.json with the scaling rows; the bench field tells them
// apart).
type gcEntry struct {
	Bench          string `json:"bench"`
	Scale          string `json:"scale"`
	Budget         int    `json:"budget"`
	Updates        int    `json:"updates"`
	UnboundedPeak  int    `json:"unbounded_peak_nodes"`
	BudgetedPeak   int    `json:"budgeted_peak_nodes"`
	BudgetedSteady int    `json:"budgeted_steady_nodes"`
	GCRuns         uint64 `json:"gc_runs"`
	Reclaimed      uint64 `json:"gc_reclaimed_nodes"`
	GCPauseP50Ns   int64  `json:"gc_pause_p50_ns"`
	GCPauseP95Ns   int64  `json:"gc_pause_p95_ns"`
	GCNs           int64  `json:"gc_ns"`
	Cores          int    `json:"cores"`
	RecordedAt     string `json:"recorded_at,omitempty"`
}

const (
	gcSubspaces   = 4
	gcSeed        = 0x6c0de
	gcChurnFactor = 3 // churn operations per initially-inserted rule
)

// gcWorkload builds the garbage-heavy sequence: the APSP insert storm
// followed by churn whose re-inserts replace the deleted rule's prefix
// with a fresh random one. Identical-predicate churn (SkewedChurn) is
// free under hash-consing; mutating the prefix is what makes an
// unbounded engine accumulate dead predicates for the GC to reclaim.
func gcWorkload(scale exps.Scale) (*workload.Workload, []workload.DevUpdate) {
	w := exps.Build(exps.LNetAPSP, scale)
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
	rng := rand.New(rand.NewSource(gcSeed))
	nextID := int64(1 << 40)
	for n := 0; n < gcChurnFactor*len(pool); n++ {
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

// gcApply drives the sequence through a budgeted builder, sampling
// per-subspace live node counts after every chunk. It returns the
// builder, its registry, and the peak and final node counts (max over
// subspaces).
func gcApply(w *workload.Workload, seq []workload.DevUpdate, budget int) (*flash.ModelBuilder, *obs.Registry, int, int) {
	reg := obs.NewRegistry("gc")
	b := flash.NewModelBuilder(
		flash.WithTopo(w.Topo),
		flash.WithLayout(w.Layout),
		flash.WithSubspaces(gcSubspaces, ""),
		flash.WithBatch(16),
		flash.WithMemoryBudget(budget),
		flash.WithMetrics(reg),
	)
	peak := 0
	for _, batch := range workload.Chunk(seq, 128) {
		blocks := make([]flash.DeviceBlock, 0, len(batch))
		for _, fb := range batch {
			db := flash.DeviceBlock{Device: fb.Device}
			for _, u := range fb.Updates {
				db.Updates = append(db.Updates, flash.Update{Op: u.Op,
					Rule: flash.Rule{ID: u.Rule.ID, Pri: u.Rule.Pri, Action: u.Rule.Action, Desc: u.Rule.Desc}})
			}
			blocks = append(blocks, db)
		}
		if err := b.ApplyBlock(blocks); err != nil {
			fmt.Fprintf(os.Stderr, "flashbench: gc: %v\n", err)
			os.Exit(1)
		}
		if n := maxNodeCount(reg); n > peak {
			peak = n
		}
	}
	if err := b.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "flashbench: gc: %v\n", err)
		os.Exit(1)
	}
	return b, reg, peak, maxNodeCount(reg)
}

// maxNodeCount reads the bdd_nodes gauge of every subspace worker and
// returns the maximum.
func maxNodeCount(reg *obs.Registry) int {
	s := reg.Snapshot()
	m := 0
	for i := 0; i < gcSubspaces; i++ {
		if v, ok := s.Get("imt", "subspace"+strconv.Itoa(i), "bdd_nodes"); ok && int(v) > m {
			m = int(v)
		}
	}
	return m
}

// busiestPause returns the pause p50/p95 of the subspace that collected
// the most (the hot subspace's pauses dominate end-to-end latency).
func busiestPause(reg *obs.Registry) (p50, p95 int64) {
	s := reg.Snapshot()
	var best obs.HistSnapshot
	for i := 0; i < gcSubspaces; i++ {
		if h, ok := s.Hist("imt", "subspace"+strconv.Itoa(i), "bdd_gc_pause_ns"); ok && h.Count > best.Count {
			best = h
		}
	}
	return int64(best.P50Ns), int64(best.P95Ns)
}

func runGCBench(scaleName string, scale exps.Scale, record string) {
	header("GC — in-engine mark-and-sweep under a memory budget")
	w, seq := gcWorkload(scale)
	fmt.Printf("subspaces=%d updates=%d churn-factor=%d\n", gcSubspaces, len(seq), gcChurnFactor)

	// Unbounded control: its final state feeds the explicit-GC timing.
	ctrl, _, unboundedPeak, _ := gcApply(w, seq, 0)
	t0 := time.Now()
	reclaimed, err := ctrl.GC()
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashbench: gc: %v\n", err)
		os.Exit(1)
	}
	gcNs := time.Since(t0).Nanoseconds()

	// Budgeted run: the watermark must force collections well before the
	// unbounded peak. An eighth of the peak (floored) keeps the budget
	// scale-relative; the floor keeps tiny scales from thrashing.
	budget := unboundedPeak / 8
	if budget < 512 {
		budget = 512
	}
	b, reg, peak, steady := gcApply(w, seq, budget)
	st := b.StatsSnapshot().GC
	p50, p95 := busiestPause(reg)

	e := gcEntry{
		Bench:          "bdd-gc",
		Scale:          scaleName,
		Budget:         budget,
		Updates:        len(seq),
		UnboundedPeak:  unboundedPeak,
		BudgetedPeak:   peak,
		BudgetedSteady: steady,
		GCRuns:         st.Runs,
		Reclaimed:      st.ReclaimedNodes,
		GCPauseP50Ns:   p50,
		GCPauseP95Ns:   p95,
		GCNs:           gcNs,
		Cores:          runtime.NumCPU(),
	}
	fmt.Printf("unbounded peak=%d nodes; budget=%d: peak=%d steady=%d (%d collections, %d nodes reclaimed)\n",
		e.UnboundedPeak, e.Budget, e.BudgetedPeak, e.BudgetedSteady, e.GCRuns, e.Reclaimed)
	fmt.Printf("gc pause p50=%s p95=%s\n", time.Duration(e.GCPauseP50Ns), time.Duration(e.GCPauseP95Ns))
	fmt.Printf("full-state reclamation: gc=%s — reclaimed %d nodes\n", time.Duration(e.GCNs), reclaimed)

	if record != "" {
		e.RecordedAt = time.Now().UTC().Format(time.RFC3339)
		if err := appendEntries(record, []any{e}); err != nil {
			fmt.Fprintf(os.Stderr, "flashbench: gc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recorded 1 entry to %s\n", record)
	}
}

// appendEntries appends rows to the JSON trajectory file. Existing rows
// are kept as raw messages so entry shapes from different experiments
// (scaling, gc) coexist in one file without losing fields.
func appendEntries(path string, rows []any) error {
	var all []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for _, r := range rows {
		raw, err := json.Marshal(r)
		if err != nil {
			return err
		}
		all = append(all, raw)
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
