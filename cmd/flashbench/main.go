// Command flashbench regenerates the tables and figures of the Flash
// paper's evaluation (§5 and appendices) on scaled-down workloads and
// prints them in the paper's shape. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	flashbench -exp table3            # Table 3 (all settings)
//	flashbench -exp fig6              # storm baselines, no partitioning
//	flashbench -exp fig7              # block size threshold sweep
//	flashbench -exp fig8              # PUV/BUV/CE2D consistency timeline
//	flashbench -exp fig9              # CE2D long-tail detection CDF
//	flashbench -exp fig10             # multiple dampened switches
//	flashbench -exp fig11             # model-construction phase breakdown
//	flashbench -exp fig12             # DGQ vs MT reachability check
//	flashbench -exp fig14             # update storm bursts (Appendix A)
//	flashbench -exp fig15             # fat-tree pod-add counts
//	flashbench -exp fig18             # verification time vs progress
//	flashbench -exp overhead          # §5.5 resource accounting
//	flashbench -exp scaling           # work-stealing scheduler on skewed churn
//	flashbench -exp gc                # in-engine BDD GC under a memory budget
//	flashbench -exp recovery          # warm restart vs checkpoint age
//	flashbench -exp shards            # sharded verification vs shard count
//	flashbench -exp all
//
// -exp scaling sweeps worker counts {1,2,4,8} over a hot-subspace
// churn workload; -exp gc measures peak/steady-state node counts and
// GC pauses under a memory budget; -exp recovery measures checkpoint
// restore + suffix replay against full re-ingest across checkpoint
// ages; -exp shards replays a skewed-churn epoch stream through the
// shard coordinator with N ∈ {1,2,4} in-process replicas and reports
// throughput and per-epoch verify latency. With -record FILE the
// measured rows of these experiments are
// appended to a JSON benchmark-trajectory file (conventionally
// BENCH_flash.json).
//
// -scale selects workload sizing (tiny|small|medium|large).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exps"
	"repro/internal/obs"
	"repro/internal/openr"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiment to run (table3|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig14|fig15|fig18|overhead|all)")
		scaleFlag = flag.String("scale", "small", "workload scale (tiny|small|medium|large)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-baseline timeout for storm experiments")
		trials    = flag.Int("trials", 50, "trials for the CDF experiments")
		subspaces = flag.Int("subspaces", 4, "subspace partition count")
		metrics   = flag.Bool("metrics", false, "dump a per-experiment metrics snapshot (latency histograms) after each phase")
		record    = flag.String("record", "", "append scaling results to this JSON trajectory file (scaling experiment only)")
	)
	flag.Parse()

	scale, err := parseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	runners := map[string]func(){
		"table3":   func() { runTable3(scale, *subspaces, *timeout) },
		"fig6":     func() { runFig6(scale, *timeout) },
		"fig7":     func() { runFig7(scale) },
		"fig8":     runFig8,
		"fig9":     func() { runFig9(*trials) },
		"fig10":    func() { runFig10(*trials) },
		"fig11":    func() { runFig11(scale) },
		"fig12":    func() { runFig12(scale) },
		"fig14":    runFig14,
		"fig15":    runFig15,
		"fig18":    func() { runFig18(scale) },
		"overhead": func() { runOverhead(scale, *subspaces) },
		"scaling":  func() { runScaling(*scaleFlag, scale, *record) },
		"gc":       func() { runGCBench(*scaleFlag, scale, *record) },
		"recovery": func() { runRecovery(*scaleFlag, *record) },
		"shards":   func() { runShards(*scaleFlag, scale, *record) },
	}
	order := []string{"table3", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig14", "fig15", "fig18", "overhead"}

	// With -metrics, each experiment gets a fresh registry and its
	// latency distributions (not just totals) are dumped after the phase.
	instrumented := func(name string, run func()) {
		if *metrics {
			exps.Metrics = obs.NewRegistry(name)
		}
		run()
		if *metrics {
			dumpMetrics(name, exps.Metrics)
			exps.Metrics = nil
		}
	}

	if *expFlag == "all" {
		for _, name := range order {
			instrumented(name, runners[name])
			fmt.Println()
		}
		return
	}
	run, ok := runners[*expFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "flashbench: unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
	instrumented(*expFlag, run)
}

// dumpMetrics prints the per-phase observability snapshot: one block per
// workload sub-registry, with the Fast IMT phase latency histograms
// (p50/p95/p99) that the plain tables reduce to totals.
func dumpMetrics(name string, reg *obs.Registry) {
	s := reg.Snapshot()
	if len(s.Subs) == 0 {
		return
	}
	fmt.Printf("-- metrics (%s) --\n", name)
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashbench: metrics encoding: %v\n", err)
		return
	}
	fmt.Println(string(out))
}

func parseScale(s string) (exps.Scale, error) {
	switch s {
	case "tiny":
		return exps.Tiny, nil
	case "small":
		return exps.Small, nil
	case "medium":
		return exps.Medium, nil
	case "large":
		return exps.Large, nil
	default:
		return 0, fmt.Errorf("flashbench: unknown scale %q", s)
	}
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

func fmtResult(r exps.SystemResult) string {
	t := r.Time.Round(time.Millisecond).String()
	if r.TimedOut {
		t = ">" + t
	}
	return fmt.Sprintf("%-12s time=%-10s ops=%-12d units=%-10d heapΔ=%s",
		r.System, t, r.Ops, r.Units, fmtBytes(r.MemBytes))
}

func fmtBytes(b uint64) string {
	switch {
	case b > 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b > 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func runTable3(scale exps.Scale, subspaces int, timeout time.Duration) {
	header("Table 3 — overall performance (subspace-partitioned)")
	for _, s := range exps.AllSettings {
		nsub := subspaces
		if s == exps.AirtelTrace || s == exps.StanfordTrace || s == exps.I2Trace {
			nsub = 1 // the paper partitions only the LNet settings
		}
		row := exps.RunTable3(s, scale, nsub, timeout)
		fmt.Printf("%-16s rules=%-8d updates=%-8d subspaces=%d\n",
			row.Setting, row.Rules, row.Updates, row.Subspaces)
		fmt.Printf("  %s  (speedup %.1fx)\n", fmtResult(row.DeltaNet), row.Speedup(row.DeltaNet))
		fmt.Printf("  %s  (speedup %.1fx)\n", fmtResult(row.APKeep), row.Speedup(row.APKeep))
		fmt.Printf("  %s\n", fmtResult(row.Flash))
	}
}

func runFig6(scale exps.Scale, timeout time.Duration) {
	header("Figure 6 — update storms without partitioning")
	for _, s := range []exps.Setting{exps.LNetECMP, exps.LNetSMR} {
		r := exps.RunFig6(s, scale, timeout)
		fmt.Printf("%s:\n  %s\n  %s\n  %s\n", s,
			fmtResult(r.DeltaNet), fmtResult(r.APKeep), fmtResult(r.Flash))
	}
}

func runFig7(scale exps.Scale) {
	header("Figure 7 — block size threshold vs model update speed")
	fractions := []float64{0.005, 0.01, 0.02, 0.04, 0.1, 0.2, 0.5, 1.0}
	for _, s := range []exps.Setting{exps.LNetAPSP, exps.I2Trace, exps.StanfordTrace} {
		pts := exps.RunFig7(s, scale, fractions)
		fmt.Printf("%s:\n", s)
		for _, p := range pts {
			bar := strings.Repeat("#", int(40*clamp01(p.Normalized)))
			fmt.Printf("  BST/FIB=%-6.3f speed=%5.2f %s\n", p.BSTFraction, p.Normalized, bar)
		}
	}
}

func clamp01(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < 0 {
		return 0
	}
	return x
}

func runFig8() {
	header("Figure 8 — FIB update timeline and verification reports")
	r := exps.RunFig8()
	for _, p := range r.Points {
		at := time.Duration(p.At) * time.Microsecond
		switch p.Kind {
		case "update":
			fmt.Printf("  %8s  update  %-6s epoch=%.8s\n", at, p.Device, p.Epoch)
		default:
			verdict := "no-loop"
			if p.Loop {
				verdict = "LOOP"
			}
			fmt.Printf("  %8s  %-6s  %s\n", at, p.Kind, verdict)
		}
	}
	fmt.Printf("transient loops: PUV=%d BUV=%d CE2D=%d (CE2D must be 0)\n",
		r.PUVTransient, r.BUVTransient, r.CE2DLoops)
}

func printCDF(c exps.CDF) {
	marks := []openr.Time{50_000, 100_000, 200_000, 400_000, 800_000, exps.Second, 60 * exps.Second}
	for _, m := range marks {
		fmt.Printf("  ≤%-8s %5.1f%%\n", time.Duration(m)*time.Microsecond, 100*c.Fraction(m))
	}
}

func runFig9(trials int) {
	header("Figure 9 — CE2D report time under long-tail arrivals")
	fmt.Println("I2-OpenR/1buggy-loop-lt:")
	printCDF(exps.RunFig9OpenR(trials, 1))
	fmt.Println("I2-trace-loop-lt (D=1):")
	printCDF(exps.RunFig10Trace(trials, 1, 2))
}

func runFig10(trials int) {
	header("Figure 10 — early loop detection vs dampened switches")
	for _, d := range []int{1, 3, 5, 7} {
		c := exps.RunFig10Trace(trials, d, int64(100+d))
		fmt.Printf("D=%d: ≤800ms %.1f%%\n", d, 100*c.Fraction(800_000))
	}
}

func runFig11(scale exps.Scale) {
	header("Figure 11 — model construction time breakdown (I2-trace)")
	r := exps.RunFig11(scale)
	fmt.Printf("%-24s %-14s %-14s %s\n", "phase", "APKeep*", "Flash(per-upd)", "Flash")
	fmt.Printf("%-24s %-14s %-14s %s\n", "computing atomic ow.", r.APKeepMap.Round(time.Microsecond),
		r.PerUpdMap.Round(time.Microsecond), r.FlashMap.Round(time.Microsecond))
	fmt.Printf("%-24s %-14s %-14s %s\n", "overwrite aggregation", "-",
		r.PerUpdReduce.Round(time.Microsecond), r.FlashReduce.Round(time.Microsecond))
	fmt.Printf("%-24s %-14s %-14s %s\n", "applying overwrites", r.APKeepApply.Round(time.Microsecond),
		r.PerUpdApply.Round(time.Microsecond), r.FlashApply.Round(time.Microsecond))
	fmt.Printf("atomic overwrites %d → aggregated %d\n", r.FlashAtomic, r.FlashAggregate)
}

func runFig12(scale exps.Scale) {
	header("Figure 12 — all-pair ToR-to-ToR reachability: DGQ vs MT")
	r := exps.RunFig12(scale)
	fmt.Printf("verification graphs: %d, batches: %d\n", r.Graphs, len(r.DGQ))
	fmt.Printf("%-6s median=%-10s mean=%-10s p99=%-10s max=%s\n", "DGQ",
		exps.Quantile(r.DGQ, 0.5), exps.Mean(r.DGQ), exps.Quantile(r.DGQ, 0.99), exps.Quantile(r.DGQ, 1))
	fmt.Printf("%-6s median=%-10s mean=%-10s p99=%-10s max=%s\n", "MT",
		exps.Quantile(r.MT, 0.5), exps.Mean(r.MT), exps.Quantile(r.MT, 0.99), exps.Quantile(r.MT, 1))
	if m := exps.Quantile(r.DGQ, 0.99); m > 0 {
		fmt.Printf("p99 improvement: %.0fx\n", float64(exps.Quantile(r.MT, 0.99))/float64(m))
	}
}

func runFig14() {
	header("Figure 14 — accumulative update distribution after link events")
	r := exps.RunFig14(1024)
	fmt.Printf("burst after inter-domain failure: %d updates within 1s\n", r.Burst1)
	fmt.Printf("burst after intra-domain recovery: %d updates within 1s\n", r.Burst2)
	step := len(r.Times) / 20
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(r.Times); i += step {
		fmt.Printf("  t=%-10s cumulative=%d\n",
			time.Duration(r.Times[i])*time.Microsecond, r.Counts[i])
	}
}

func runFig15() {
	header("Figure 15 — update storm in network planning (pod add)")
	fmt.Printf("%-4s %-4s %-10s %s\n", "K", "P", "|R|", "|ΔR|")
	for _, row := range exps.RunFig15() {
		fmt.Printf("%-4d %-4d %-10d %d\n", row.K, row.P, row.Rules, row.Deltas)
	}
}

func runFig18(scale exps.Scale) {
	header("Figure 18 — verification time vs processed batches")
	r := exps.RunFig12(scale)
	step := len(r.SeriesDGQ) / 24
	if step == 0 {
		step = 1
	}
	fmt.Printf("%-8s %-12s %s\n", "batch", "DGQ", "MT")
	for i := 0; i < len(r.SeriesDGQ); i += step {
		fmt.Printf("%-8d %-12s %s\n", i, r.SeriesDGQ[i], r.SeriesMT[i])
	}
}

func runOverhead(scale exps.Scale, subspaces int) {
	header("§5.5 — computational overhead")
	r := exps.RunOverhead(scale, subspaces)
	fmt.Printf("nodes=%d rules=%d subspaces=%d\n", r.Nodes, r.Rules, r.Subspaces)
	fmt.Printf("total equivalence classes: %d\n", r.ECsTotal)
	fmt.Printf("model memory units (BDD+PAT nodes): %d\n", r.MemoryUnits)
	fmt.Printf("one-shot model construction: %s\n", r.BuildTime.Round(time.Millisecond))
	fmt.Printf("per-subspace verifier: 1 vCPU; with k machines, ⌈%d/k⌉ vCPUs each\n", r.Subspaces)
}
