package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	flash "repro"
	"repro/internal/atoms"
	"repro/internal/hs"
	"repro/internal/obs"
	"repro/internal/wire"
)

// window is one deployment's view from inside the traced run: registry
// and runtime snapshots at the start and the end of its timed phase,
// and the final epoch's fingerprint as the wire reports it.
type window struct {
	start, end obs.Snapshot
	m0, m1     runtime.MemStats
	fp         string
	cutovers   int
}

// layerProbe records a window per deployment of the traced run.
type layerProbe struct {
	ctx  context.Context
	wins []*window
	errs []string
}

func (p *layerProbe) feedStart(d *deployment) {
	w := &window{start: d.reg.Snapshot()}
	runtime.ReadMemStats(&w.m0)
	p.wins = append(p.wins, w)
}

func (p *layerProbe) feedEnd(d *deployment, lastEpoch string) {
	w := p.wins[len(p.wins)-1]
	runtime.ReadMemStats(&w.m1)
	w.end = d.reg.Snapshot()
	w.cutovers = d.sys.PredicateCutovers()
	parts, err := d.agents[0].Fingerprint(p.ctx, lastEpoch)
	if err != nil {
		p.errs = append(p.errs, fmt.Sprintf("wire fingerprint of epoch %s: %v", lastEpoch, err))
		return
	}
	w.fp = flash.ComposeFingerprints(parts)
}

// regDelta reads a counter/gauge path from two registry snapshots.
func regDelta(a, b obs.Snapshot, path ...string) int64 {
	x, _ := a.Get(path...)
	y, _ := b.Get(path...)
	return y - x
}

// counter sums a counter or gauge delta over the windows.
func (p *layerProbe) counter(path ...string) float64 {
	var n int64
	for _, w := range p.wins {
		n += regDelta(w.start, w.end, path...)
	}
	return float64(n)
}

// gaugeEnd sums a gauge's value at the end of the last window.
func (p *layerProbe) gaugeEnd(path ...string) float64 {
	v, _ := p.wins[len(p.wins)-1].end.Get(path...)
	return float64(v)
}

// histSum sums a histogram's recorded time over the windows, in s.
func (p *layerProbe) histSum(path ...string) float64 {
	var ns int64
	for _, w := range p.wins {
		a, _ := w.start.Hist(path...)
		b, _ := w.end.Hist(path...)
		ns += b.SumNs - a.SumNs
	}
	return float64(ns) / 1e9
}

// histQ is the median over deployments of a histogram quantile read at
// the end of each deployment's timed phase (whole-deployment
// histograms: linkflap's include its boot FIB's messages).
func (p *layerProbe) histQ(q func(obs.HistSnapshot) float64, path ...string) float64 {
	var xs []float64
	for _, w := range p.wins {
		h, _ := w.end.Hist(path...)
		xs = append(xs, q(h))
	}
	return median(xs)
}

// subspaceSum sums a per-subspace counter delta (path below
// ce2d/subspace<i>) over every subspace.
func (p *layerProbe) subspaceSum(path ...string) float64 {
	var n float64
	for i := 0; i < subspaces; i++ {
		n += p.counter(append([]string{"ce2d", "subspace" + strconv.Itoa(i)}, path...)...)
	}
	return n
}

func (p *layerProbe) subspaceHistSum(path ...string) float64 {
	var s float64
	for i := 0; i < subspaces; i++ {
		s += p.histSum(append([]string{"ce2d", "subspace" + strconv.Itoa(i)}, path...)...)
	}
	return s
}

func (p *layerProbe) subspaceEnd(path ...string) float64 {
	var n float64
	for i := 0; i < subspaces; i++ {
		n += p.gaugeEnd(append([]string{"ce2d", "subspace" + strconv.Itoa(i)}, path...)...)
	}
	return n
}

// subspaceHistMax is the largest per-subspace quantile at the end.
func (p *layerProbe) subspaceHistMax(q func(obs.HistSnapshot) float64, path ...string) float64 {
	var m float64
	for i := 0; i < subspaces; i++ {
		m = math.Max(m, p.histQ(q, append([]string{"ce2d", "subspace" + strconv.Itoa(i)}, path...)...))
	}
	return m
}

func p50(h obs.HistSnapshot) float64 { return h.P50Ns }
func p95(h obs.HistSnapshot) float64 { return h.P95Ns }
func p99(h obs.HistSnapshot) float64 { return h.P99Ns }

// deployments is how many deployments one traced or baseline pass
// runs: storm-ecmp boots several fresh Systems, the others run one
// full stream.
func deployments(s *Stream) int {
	if s.Name == "storm-ecmp" {
		return 4
	}
	return 1
}

// runTraced re-runs the workload with spans on and prints per-layer
// metrics. Its length is fixed by the workload, not by --seconds: one
// linkflap stream, or four storm-ecmp boots, per pass.
// Untraced deployments (for the tracing overhead and the
// per-epoch timings) alternate with traced ones, whose registry deltas
// are read around each timed phase; then each layer replay runs alone
// on the same stream.
func runTraced(ctx context.Context, s *Stream, bodies [][]byte, seed int64, out string) (report, error) {
	base := &outcome{}
	br := &rep{s: s, bodies: bodies, o: base}
	if err := br.warmUp(ctx); err != nil {
		return report{}, err
	}
	tr := newTracer()
	o := &outcome{}
	pr := &layerProbe{ctx: ctx}
	root := tr.begin("run", 0)
	tl := &rep{s: s, bodies: bodies, o: o, tr: tr, root: root, pr: pr}
	// Untraced and traced deployments alternate, so drift during the
	// run does not bias the tracing overhead.
	for i := 0; i < deployments(s); i++ {
		if err := br.run(ctx); err != nil {
			return report{}, err
		}
		if err := tl.run(ctx); err != nil {
			return report{}, err
		}
	}
	tr.end(root)

	rp := tr.begin("replay", 0)
	codec := replayCodec(tr, rp, s)
	hsNs, atomNs := replayCompile(tr, rp, s)
	feed, err := replayFeed(ctx, tr, rp, s, deployments(s), false)
	if err != nil {
		return report{}, err
	}
	busy, err := replayFeed(ctx, tr, rp, s, deployments(s), true)
	if err != nil {
		return report{}, err
	}
	tr.end(rp)

	// Correctness of the traced run: its own checks, the baseline's,
	// the snapshot replays' planted truths, and the wire fingerprint of
	// the final epoch against the in-process replay's.
	all := &outcome{}
	all.merge(o)
	all.merge(base)
	for _, f := range []*feedReplay{feed, busy} {
		all.attempted += f.attempted
		for _, p := range f.problems {
			all.fail("%s", p)
		}
	}
	for _, e := range pr.errs {
		all.fail("%s", e)
	}
	for _, w := range pr.wins {
		all.attempted++
		if w.fp != "" && w.fp != feed.fp {
			all.fail("final-epoch fingerprint over the wire %s differs from the in-process replay's %s", w.fp[:12], feed.fp[:12])
		}
	}
	for _, p := range all.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}

	m := layerMetrics(s, base, o, tr, pr, codec, hsNs, atomNs, feed, busy)
	if err := dumpSpans(tr, out, s.Name, seed); err != nil {
		return report{}, err
	}
	return report{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m}, nil
}

// codecStats is the isolated wire codec replay.
type codecStats struct {
	encNs, decNs, decAllocs float64 // per message
}

// replayCodec encodes and decodes the timed stream with
// wire.Encoder/Decoder, repeating it until each direction has run for
// at least 200ms.
func replayCodec(tr *tracer, parent int, s *Stream) codecStats {
	msgs := s.Messages()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	var n int
	t0 := time.Now()
	sp := tr.begin("replay.wire.encode", parent)
	for time.Since(t0) < 200*time.Millisecond || n == 0 {
		buf.Reset()
		for _, m := range msgs {
			if err := enc.Encode(m); err != nil {
				panic(err) // generated messages always encode
			}
		}
		n += len(msgs)
	}
	tr.end(sp)
	encNs := float64(time.Since(t0)) / float64(n)

	raw := buf.Bytes()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n = 0
	t0 = time.Now()
	sp = tr.begin("replay.wire.decode", parent)
	for time.Since(t0) < 200*time.Millisecond || n == 0 {
		dec := wire.NewDecoder(bytes.NewReader(raw))
		for {
			if _, err := dec.Decode(); err == io.EOF {
				break
			} else if err != nil {
				panic(err) // the bytes were just encoded
			}
			n++
		}
	}
	tr.end(sp)
	decNs := float64(time.Since(t0)) / float64(n)
	runtime.ReadMemStats(&ms1)
	return codecStats{encNs: encNs, decNs: decNs, decAllocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(n)}
}

// replayCompile times hs.Space.Compile and atoms.Engine.Compile over
// every rule descriptor of the timed stream, each pass on a fresh
// engine as a fresh System's subspace would start, repeating passes for
// at least 200ms per engine. It returns ns per rule for each.
func replayCompile(tr *tracer, parent int, s *Stream) (hsNs, atomNs float64) {
	var descs [][]flash.FieldMatch
	for _, m := range s.Messages() {
		for _, u := range m.Updates {
			descs = append(descs, u.Rule.Desc)
		}
	}
	if len(descs) == 0 {
		return 0, 0
	}
	n := 0
	t0 := time.Now()
	sp := tr.begin("replay.hs.compile", parent)
	for time.Since(t0) < 200*time.Millisecond || n == 0 {
		space := hs.NewSpace(s.Layout)
		for _, d := range descs {
			space.Compile(d)
		}
		n += len(descs)
	}
	tr.end(sp)
	hsNs = float64(time.Since(t0)) / float64(n)

	n = 0
	t0 = time.Now()
	sp = tr.begin("replay.atoms.compile", parent)
	for time.Since(t0) < 200*time.Millisecond || n == 0 {
		am := atoms.New(s.Layout.TotalBits())
		for _, d := range descs {
			// Multi-field descriptors are outside the atom regime (the
			// hybrid engine sends them to the BDD); errors are expected.
			_, _ = am.Compile(s.Layout, d)
		}
		n += len(descs)
	}
	tr.end(sp)
	atomNs = float64(time.Since(t0)) / float64(n)
	return hsNs, atomNs
}

// feedReplay is one in-process System.FeedContext replay of the stream.
type feedReplay struct {
	feedMs    []float64 // per message
	feedS     float64   // Σ FeedContext wall time
	ce2dS     float64   // Σ ce2d feed_ns in the replay's own registry
	fp        string    // final epoch's fingerprint
	captureMs []float64 // Snapshot, per query
	applyMs   []float64 // Apply, per query
	whatifMs  []float64 // Snapshot+Apply+Release, per query

	attempted int
	problems  []string // one per failed operation
}

func (f *feedReplay) fail(format string, args ...any) {
	f.problems = append(f.problems, fmt.Sprintf(format, args...))
}

// replayFeed feeds the stream to fresh in-process Systems with
// FeedContext, one message at a time. Idle (underFeed false): the feed
// is timed per message, then what-ifs run through
// Snapshot→Apply→Release on the idle final model. Under feed: a second
// goroutine runs those what-ifs at whatifRate while the feed runs.
func replayFeed(ctx context.Context, tr *tracer, parent int, s *Stream, boots int, underFeed bool) (*feedReplay, error) {
	f := &feedReplay{}
	nextQ := 0
	whatIf := func(sys *flash.System, name string) {
		q := s.Queries[nextQ%len(s.Queries)]
		nextQ++
		t0 := time.Now()
		snap, err := sys.Snapshot()
		t1 := time.Now()
		f.attempted++
		if err != nil {
			f.fail("%s: snapshot: %v", name, err)
			return
		}
		res, err := snap.Apply(ctx, blocks(q))
		t2 := time.Now()
		snap.Release()
		t3 := time.Now()
		sp := tr.record(name, parent, t0, t3)
		tr.record("snapshot.capture", sp, t0, t1)
		tr.record("snapshot.apply", sp, t1, t2)
		tr.record("snapshot.release", sp, t2, t3)
		if err != nil {
			f.fail("%s: apply: %v", name, err)
			return
		}
		var loops [][]uint64
		for _, r := range res {
			if r.Loop == flash.LoopFound {
				loops = append(loops, r.Witness)
			}
		}
		if !q.holds(s.Layout, loops) {
			f.fail("%s: planted loop %v, prefix %v, LoopFound witnesses %v", name, q.Loop, q.Prefix, loops)
		}
		f.captureMs = append(f.captureMs, ms(t1.Sub(t0)))
		f.applyMs = append(f.applyMs, ms(t2.Sub(t1)))
		f.whatifMs = append(f.whatifMs, ms(t3.Sub(t0)))
	}
	for b := 0; b < boots; b++ {
		sys, reg, err := newSystem(s)
		if err != nil {
			return nil, err
		}
		for _, m := range s.Boot {
			if _, err := sys.FeedContext(ctx, m); err != nil {
				return nil, fmt.Errorf("replay boot FIB: %w", err)
			}
		}
		before := reg.Snapshot()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if underFeed {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := time.NewTicker(time.Second / whatifRate)
				defer t.Stop()
				for {
					select {
					case <-stop:
						return
					case <-t.C:
						whatIf(sys, "whatif.busy")
					}
				}
			}()
		}
		msgs := s.Messages()
		if s.Orders != nil {
			msgs = s.bootOrder(b)
		}
		feedSpan := "flash.feed"
		if underFeed {
			feedSpan = "flash.feed.beside_whatif"
		}
		// The what-if goroutine owns f until it stops; the feed keeps its
		// own tally meanwhile.
		var feedMs []float64
		var feedErrs []error
		for _, m := range msgs {
			t0 := time.Now()
			_, err := sys.FeedContext(ctx, m)
			t1 := time.Now()
			tr.record(feedSpan, parent, t0, t1)
			feedMs = append(feedMs, ms(t1.Sub(t0)))
			if err != nil {
				feedErrs = append(feedErrs, err)
			}
		}
		close(stop)
		wg.Wait()
		f.attempted += len(msgs)
		for _, err := range feedErrs {
			f.fail("replay feed: %v", err)
		}
		if !underFeed {
			f.feedMs = append(f.feedMs, feedMs...)
			for _, d := range feedMs {
				f.feedS += d / 1e3
			}
		}
		after := reg.Snapshot()
		for i := 0; i < subspaces; i++ {
			a, _ := before.Hist("ce2d", "subspace"+strconv.Itoa(i), "feed_ns")
			z, _ := after.Hist("ce2d", "subspace"+strconv.Itoa(i), "feed_ns")
			f.ce2dS += float64(z.SumNs-a.SumNs) / 1e9
		}
		last := s.Epochs[len(s.Epochs)-1][0].Epoch
		if f.fp, err = sys.ModelFingerprint(last); err != nil {
			return nil, fmt.Errorf("replay fingerprint: %w", err)
		}
		if !underFeed {
			for i := 0; i < idleQueries(s.Name); i++ {
				whatIf(sys, "whatif.idle")
			}
		}
	}
	return f, nil
}

// layerMetrics assembles the per-layer metrics and prints each layer's
// self time along the feed's blocking path.
func layerMetrics(s *Stream, base, o *outcome, tr *tracer, pr *layerProbe, codec codecStats,
	hsNs, atomNs float64, feed, busy *feedReplay) map[string]metric {
	msgs := float64(len(o.msgMs))
	updates := float64(o.updates)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// wire
	handleP50 := pr.histQ(p50, "serve", "handle_ns")
	put("wire.encode_ns_per_msg", codec.encNs, "ns")
	put("wire.decode_ns_per_msg", codec.decNs, "ns")
	put("wire.decode_allocs_per_msg", codec.decAllocs, "count")
	put("wire.bytes_per_msg", ratio(pr.counter("wire", "bytes_rx"), pr.counter("wire", "frames_rx")), "bytes")
	put("wire.transport_ns_p50", quantile(tr.durations("wire.send_ack"), 0.5)*1e6-handleP50, "ns")
	put("wire.dup_frames", pr.counter("wire", "dup_frames"), "count")
	put("wire.window_drops", pr.counter("wire", "window_drops"), "count")
	put("wire.reconnects", pr.counter("wire", "reconnects"), "count")

	// serve
	put("serve.handle_ns_p50", handleP50, "ns")
	put("serve.handle_ns_p99", pr.histQ(p99, "serve", "handle_ns"), "ns")
	put("serve.feed_errors", pr.counter("serve", "feed_errors"), "count")
	put("serve.quarantine_drops", pr.counter("serve", "quarantine_drops"), "count")

	// flash (System)
	put("flash.feed_ns_p50", quantile(feed.feedMs, 0.50)*1e6, "ns")
	put("flash.feed_ns_p99", quantile(feed.feedMs, 0.99)*1e6, "ns")
	put("flash.results_per_msg", ratio(pr.counter("serve", "results"), msgs), "count")
	put("verdictbus.published", pr.counter("verdicts", "published"), "count")
	put("verdictbus.dropped", pr.counter("verdicts", "dropped"), "count")

	// sched
	dispatches := pr.counter("sched", "dispatches")
	tasks := pr.counter("sched", "tasks")
	put("sched.dispatches", dispatches, "count")
	put("sched.tasks_per_dispatch", ratio(tasks, dispatches), "count")
	put("sched.steal_ratio", ratio(pr.counter("sched", "steals"), tasks), "ratio")

	// imt
	mapS := pr.subspaceHistSum("imt", "map_ns")
	reduceS := pr.subspaceHistSum("imt", "reduce_ns")
	applyS := pr.subspaceHistSum("imt", "apply_ns")
	imtS := mapS + reduceS + applyS
	blocks := pr.subspaceSum("imt", "blocks")
	put("imt.busy_s", imtS, "s")
	put("imt.map_s", mapS, "s")
	put("imt.reduce_s", reduceS, "s")
	put("imt.apply_s", applyS, "s")
	put("imt.blocks", blocks, "count")
	put("imt.aggregation_ratio", ratio(pr.subspaceSum("imt", "aggregated_overwrites"), pr.subspaceSum("imt", "atomic_overwrites")), "ratio")
	put("imt.ecs_end", pr.subspaceEnd("imt", "ecs"), "count")

	// hs / atoms compile: every subspace compiles every update.
	compileNs := hsNs
	if s.Mode == "hybrid" {
		compileNs = atomNs
	}
	put("hs.compile_ns_per_rule", hsNs, "ns")
	put("atoms.compile_ns_per_rule", atomNs, "ns")

	// ce2d
	ce2dS := pr.subspaceHistSum("feed_ns")
	compileS := math.Min(updates*subspaces*compileNs/1e9, math.Max(ce2dS-imtS, 0))
	first, last := quarters(base.epochMs)
	put("ce2d.busy_s", ce2dS, "s")
	put("ce2d.verifiers_created", pr.subspaceSum("verifiers_created"), "count")
	put("ce2d.verifiers_stopped", pr.subspaceSum("verifiers_stopped"), "count")
	put("ce2d.replayed_blocks", blocks-pr.subspaceSum("messages"), "count")
	put("ce2d.queue_depth_end", pr.subspaceEnd("queue_depth"), "count")
	put("ce2d.epoch_cost_growth", ratio(last, first), "ratio")
	put("ce2d.straggler_wait_p95_ms", pr.subspaceHistMax(p95, "straggler_wait_ns")/1e6, "ms")
	put("ce2d.detect_busy_s", ce2dS-imtS-compileS, "s")

	// pred
	ops := pr.subspaceSum("bdd_ops")
	hits, misses := pr.subspaceSum("bdd_cache_hits"), pr.subspaceSum("bdd_cache_misses")
	put("pred.ops", ops, "count")
	put("pred.ops_per_update", ratio(ops, updates), "count")
	put("pred.cache_hit_rate", ratio(hits, hits+misses), "ratio")
	put("pred.nodes_end", pr.subspaceEnd("bdd_nodes"), "count")
	put("pred.gc_pause_p95_ms", pr.subspaceHistMax(p95, "bdd_gc_pause_ns")/1e6, "ms")
	put("pred.cutovers", float64(pr.wins[len(pr.wins)-1].cutovers), "count")

	// reach: a guard that the reachability check ran.
	put("reach.verdicts", float64(o.reach), "count")

	// snapshot and api
	put("snapshot.capture_ns_p50", quantile(busy.captureMs, 0.5)*1e6, "ns")
	put("snapshot.capture_ns_p95", quantile(busy.captureMs, 0.95)*1e6, "ns")
	put("snapshot.apply_ns_p50", quantile(busy.applyMs, 0.5)*1e6, "ns")
	put("snapshot.apply_ns_p95", quantile(busy.applyMs, 0.95)*1e6, "ns")
	put("snapshot.contention_ns_p95", (quantile(busy.whatifMs, 0.95)-quantile(feed.whatifMs, 0.95))*1e6, "ns")
	// The HTTP what-ifs ran on the idle model; subtract the in-process
	// Snapshot+Apply+Release on the idle model.
	put("api.whatif_overhead_ns_p50", (quantile(tr.durations("api.whatif"), 0.5)-quantile(feed.whatifMs, 0.5))*1e6, "ns")

	// Go runtime, over the traced timed phases.
	var alloc, gcs, pause float64
	for _, w := range pr.wins {
		alloc += float64(w.m1.TotalAlloc - w.m0.TotalAlloc)
		gcs += float64(w.m1.NumGC - w.m0.NumGC)
		pause += float64(w.m1.PauseTotalNs-w.m0.PauseTotalNs) / 1e6
	}
	put("go.alloc_bytes_per_update", ratio(alloc, updates), "bytes")
	put("go.gc_cycles", gcs, "count")
	put("go.gc_pause_total_ms", pause, "ms")

	// tracing cost
	put("trace.overhead_pct", 100*ratio(o.feedS-base.feedS, base.feedS), "%")

	// Self time along the feed's blocking path. Worker-side busy time
	// (ce2d, imt, compile) runs on up to `workers` cores at once, so it
	// is divided by that count to be comparable with wall time.
	par := float64(min(runtime.GOMAXPROCS(0), subspaces))
	root := o.feedS
	selfWire := msgs * (codec.encNs + codec.decNs) / 1e9
	selfServe := pr.histSum("serve", "handle_ns") - feed.feedS
	selfFlash := feed.feedS - feed.ce2dS/par
	selfCE2D := (ce2dS - imtS - compileS) / par
	selfIMT := imtS / par
	selfCompile := compileS / par
	explained := selfWire + selfServe + selfFlash + selfCE2D + selfIMT + selfCompile
	put("self.wire_s", selfWire, "s")
	put("self.serve_s", selfServe, "s")
	put("self.flash_s", selfFlash, "s")
	put("self.ce2d_s", selfCE2D, "s")
	put("self.imt_s", selfIMT, "s")
	put("self.compile_s", selfCompile, "s")
	put("trace.root_s", root, "s")
	put("trace.unexplained_s", root-explained, "s")
	put("trace.explained_pct", 100*ratio(explained, root), "%")

	fmt.Printf("self time along the feed path (traced, %d deployments, root %.3fs):\n", len(pr.wins), root)
	for _, l := range []struct {
		name string
		v    float64
	}{
		{"wire (codec)", selfWire}, {"serve", selfServe}, {"flash+sched", selfFlash},
		{"ce2d (detect, replay)", selfCE2D}, {"imt", selfIMT}, {"hs/atoms compile", selfCompile},
		{"unexplained (transport, client, imbalance)", root - explained},
	} {
		fmt.Printf("  %-44s %9.4fs %6.1f%%\n", l.name, l.v, 100*ratio(l.v, root))
	}
	return m
}

// quarters returns the mean of the first and the last quarter of xs.
func quarters(xs []float64) (first, last float64) {
	n := (len(xs) + 3) / 4
	if n == 0 {
		return 0, 0
	}
	mean := func(ys []float64) float64 {
		var s float64
		for _, y := range ys {
			s += y
		}
		return s / float64(len(ys))
	}
	return mean(xs[:n]), mean(xs[len(xs)-n:])
}

// dumpSpans writes the traced run's spans as JSON under out/traces.
func dumpSpans(tr *tracer, out, name string, seed int64) error {
	dir := filepath.Join(out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	raw, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return nil
}
