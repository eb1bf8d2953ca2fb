// Command e2ebench is the repository's end-to-end benchmark. It
// generates a workload's message stream from a seed, serves it to an
// in-process System behind flash.NewServer on loopback (configured as
// cmd/flashd configures it), drives it with at most nproc connections,
// checks every verdict against the generator's planted truth, and
// prints the metrics as one JSON object on its last output line.
//
// Usage (from the repository root, see run.sh):
//
//	e2ebench --workload linkflap --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 re-runs the
// workload with spans on and prints the per-layer metrics instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: storm-ecmp or linkflap")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 20, "measuring budget in seconds")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for span dumps")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string) error {
	s, err := Generate(name, seed)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(s.Queries))
	for i, q := range s.Queries {
		if bodies[i], err = whatIfBody(q); err != nil {
			return err
		}
	}
	z := s.Sizes()
	fmt.Printf("workload %s seed %d: %d devices, %d epochs, %d messages, %d rule updates, %d what-if hypotheses, stream %s\n",
		s.Name, seed, z.Devices, z.Epochs, z.Messages, z.Updates, len(s.Queries), s.Hash()[:16])
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s; %d subspaces, predicate mode %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), subspaces, s.Mode)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var rep report
	if traced {
		rep, err = runTraced(ctx, s, bodies, seed, out)
	} else {
		var o *outcome
		o, err = runUntraced(ctx, s, bodies, seconds)
		if err == nil {
			rep = endToEnd(o)
		}
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Printf("  %-34s %14.6f (%d failed of %d attempted)\n", "error_rate",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
	return nil
}

// endToEnd turns an untraced run's tally into the end-to-end metrics.
func endToEnd(o *outcome) report {
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	whatif := o.whatIfMedians()
	fmt.Printf("samples: %d set-ups, %d messages, %d epochs, %d what-if hypotheses\n",
		len(o.setupS), len(o.msgMs), len(o.epochMs), len(whatif))
	m := map[string]metric{
		"setup_s":               {median(o.setupS), "s"},
		"updates_per_s":         {float64(o.updates) / o.feedS, "1/s"},
		"update_verdict_p50_ms": {quantile(o.msgMs, 0.50), "ms"},
		"update_verdict_p99_ms": {quantile(o.msgMs, 0.99), "ms"},
		"epoch_verdict_p50_ms":  {quantile(o.epochMs, 0.50), "ms"},
		"epoch_verdict_p95_ms":  {quantile(o.epochMs, 0.95), "ms"},
		"whatif_p50_ms":         {quantile(whatif, 0.50), "ms"},
		"whatif_p95_ms":         {quantile(whatif, 0.95), "ms"},
		"live_heap_mb":          {median(o.heapMB), "MB"},
	}
	return report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}
