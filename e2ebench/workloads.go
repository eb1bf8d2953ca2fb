package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	flash "repro"
)

// idleQueries is how many distinct hypotheses a deployment runs
// closed-loop on its idle model after its timed phase: a few per
// storm-ecmp boot (each costs tens of ms on the ECMP model), 500 after
// a linkflap feed.
func idleQueries(workload string) int {
	if workload == "storm-ecmp" {
		return 4
	}
	return 500
}

// idlePasses is how many times a deployment runs its idle hypotheses.
// linkflap's deployments rerun the same 500, so each hypothesis is
// timed a dozen times across the run and the what-if metrics take its
// median: a host stall of a second or two then slows a few passes of a
// hypothesis, not the hypothesis, and the idle phases together span
// several seconds of the run instead of one.
func idlePasses(workload string) int {
	if workload == "linkflap" {
		return 6
	}
	return 1
}

// outcome accumulates one run's measurements and its correctness tally.
type outcome struct {
	setupS   []float64         // per deployment
	msgMs    []float64         // Send → ack, per timed message
	epochMs  []float64         // first send → last ack, per epoch (storm: per boot)
	whatifMs map[int][]float64 // request → HTTP response, per hypothesis, one per pass
	heapMB   []float64         // per deployment, after the timed phase
	feedS    float64           // Σ timed feed wall time
	updates  int               // rule updates verified in the timed phase
	reach    int               // reachability verdicts pushed to the agents

	attempted, failed int
	problems          []string
}

// merge folds another tally into o.
func (o *outcome) merge(x *outcome) {
	o.setupS = append(o.setupS, x.setupS...)
	o.msgMs = append(o.msgMs, x.msgMs...)
	o.epochMs = append(o.epochMs, x.epochMs...)
	for q, xs := range x.whatifMs {
		o.whatIf(q, xs...)
	}
	o.heapMB = append(o.heapMB, x.heapMB...)
	o.feedS += x.feedS
	o.updates += x.updates
	o.reach += x.reach
	o.attempted += x.attempted
	o.failed += x.failed
	for _, p := range x.problems {
		if len(o.problems) < 20 {
			o.problems = append(o.problems, p)
		}
	}
}

// whatIf records latencies of hypothesis q.
func (o *outcome) whatIf(q int, xs ...float64) {
	if o.whatifMs == nil {
		o.whatifMs = map[int][]float64{}
	}
	o.whatifMs[q] = append(o.whatifMs[q], xs...)
}

// whatIfMedians is what the what-if metrics are quantiles of: each
// hypothesis's median latency.
func (o *outcome) whatIfMedians() []float64 {
	out := make([]float64, 0, len(o.whatifMs))
	for _, xs := range o.whatifMs {
		out = append(out, median(xs))
	}
	return out
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// rep is one deployment's worth of a workload: set-up, the timed
// phase, the output checks, and (optionally) idle what-ifs.
type rep struct {
	s      *Stream
	bodies [][]byte // what-if request bodies, one per s.Queries entry
	o      *outcome
	tr     *tracer // nil: untraced
	root   int
	pr     *layerProbe // nil: untraced
	nextQ  int         // next idle query
	boots  int         // storm-ecmp boots run so far
	wantFP string      // the first boot's fingerprint (storm-ecmp)
}

// run executes one deployment of the stream's workload.
func (r *rep) run(ctx context.Context) error {
	switch r.s.Name {
	case "storm-ecmp":
		return r.boot(ctx)
	default:
		return r.flap(ctx)
	}
}

// setUp deploys the stream's System and installs its boot FIB, timing
// both as one set-up.
func (r *rep) setUp(ctx context.Context) (*deployment, error) {
	t0 := time.Now()
	d, err := deploy(r.s)
	if err != nil {
		return nil, err
	}
	for _, m := range r.s.Boot {
		if err := sendSync(ctx, d.agents[0], m); err != nil {
			d.close()
			return nil, fmt.Errorf("boot FIB: %w", err)
		}
	}
	r.o.setupS = append(r.o.setupS, time.Since(t0).Seconds())
	return d, nil
}

// boot is one storm-ecmp fabric boot on a fresh System: two agents send
// their halves of the permuted FIB stream closed-loop; the boot's
// verdict is final when the last message is acked.
func (r *rep) boot(ctx context.Context) error {
	s := r.s
	d, err := r.setUp(ctx)
	if err != nil {
		return err
	}
	defer d.close()
	if r.pr != nil {
		r.pr.feedStart(d)
	}
	ep := s.bootOrder(r.boots)
	r.boots++
	lat := make([][]float64, len(d.agents))
	errs := make([]error, len(d.agents))
	var wg sync.WaitGroup
	start := time.Now()
	bootSpan := r.tr.begin("epoch", r.root)
	for k := range d.agents {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(ep); i += len(d.agents) {
				t := time.Now()
				sp := r.tr.begin("wire.send_ack", bootSpan)
				err := sendSync(ctx, d.agents[k], ep[i])
				r.tr.end(sp)
				if err != nil {
					errs[k] = fmt.Errorf("storm: agent %d message %d: %w", k, i, err)
					return
				}
				lat[k] = append(lat[k], ms(time.Since(t)))
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	r.tr.end(bootSpan)
	r.o.attempted += len(ep)
	for k, l := range lat {
		r.o.msgMs = append(r.o.msgMs, l...)
		if errs[k] != nil {
			r.o.fail("%v", errs[k])
		}
	}
	r.o.epochMs = append(r.o.epochMs, ms(wall))
	r.o.feedS += wall.Seconds()
	for _, m := range ep {
		r.o.updates += len(m.Updates)
	}
	if r.pr != nil {
		r.pr.feedEnd(d, ep[0].Epoch)
	}
	r.checkFeed(d)

	// Every boot installs the same FIB, so every boot's model must
	// digest to the same fingerprint whatever the send order.
	r.o.attempted++
	fp, err := d.sys.ModelFingerprint(ep[0].Epoch)
	switch {
	case err != nil:
		r.o.fail("storm: fingerprint: %v", err)
	case r.wantFP == "":
		r.wantFP = fp
	case fp != r.wantFP:
		r.o.fail("storm: boot fingerprint %s differs from the first boot's %s", fp[:12], r.wantFP[:12])
	}
	r.o.heapMB = append(r.o.heapMB, liveHeapMB())
	r.idleQueries(ctx, d)
	return nil
}

// flap is one linkflap deployment: the boot FIB is installed during
// set-up, then one agent sends every epoch's messages closed-loop.
func (r *rep) flap(ctx context.Context) error {
	s := r.s
	d, err := r.setUp(ctx)
	if err != nil {
		return err
	}
	defer d.close()
	ag := d.agents[0]
	if r.pr != nil {
		r.pr.feedStart(d)
	}

	start := time.Now()
	for i, ep := range s.Epochs {
		es := time.Now()
		epSpan := r.tr.begin("epoch", r.root)
		for j, m := range ep {
			t := time.Now()
			sp := r.tr.begin("wire.send_ack", epSpan)
			err := sendSync(ctx, ag, m)
			r.tr.end(sp)
			if err != nil {
				r.o.fail("%s: epoch %d message %d: %v", s.Name, i, j, err)
				continue
			}
			r.o.msgMs = append(r.o.msgMs, ms(time.Since(t)))
			r.o.updates += len(m.Updates)
		}
		r.tr.end(epSpan)
		r.o.epochMs = append(r.o.epochMs, ms(time.Since(es)))
		r.o.attempted += len(ep)
	}
	r.o.feedS += time.Since(start).Seconds()
	last := s.Epochs[len(s.Epochs)-1][0].Epoch
	if r.pr != nil {
		r.pr.feedEnd(d, last)
	}
	r.checkFeed(d)
	r.o.heapMB = append(r.o.heapMB, liveHeapMB())
	r.idleQueries(ctx, d)
	return nil
}

// idleQueries runs the next idleQueries hypotheses closed-loop on an
// idle model, idlePasses times over.
func (r *rep) idleQueries(ctx context.Context, d *deployment) {
	n := idleQueries(r.s.Name)
	for p := 0; p < idlePasses(r.s.Name); p++ {
		for i := 0; i < n; i++ {
			q := (r.nextQ + i) % len(r.s.Queries)
			if l, ok := r.query(ctx, d, q); ok {
				r.o.whatIf(q, l)
			}
		}
	}
	r.nextQ += n
}

// query runs hypothesis q through the admin API, checks it against its
// planted truth and returns its latency, if the request succeeded.
func (r *rep) query(ctx context.Context, d *deployment, q int) (float64, bool) {
	t := time.Now()
	sp := r.tr.begin("api.whatif", r.root)
	loops, err := d.postWhatIf(ctx, r.bodies[q])
	r.tr.end(sp)
	r.o.attempted++
	if err != nil {
		r.o.fail("what-if %d: %v", q, err)
		return 0, false
	}
	if qq := r.s.Queries[q]; !qq.holds(r.s.Layout, loops) {
		r.o.fail("what-if %d: planted loop %v, prefix %v, LoopFound witnesses %v", q, qq.Loop, qq.Prefix, loops)
	}
	return ms(time.Since(t)), true
}

// checkFeed compares every pushed verdict with the generator's truth:
// healthy FIBs never loop, and single link failures keep tor-1-0 able
// to reach tor-0-0. It also fails the run on any feed error or
// quarantine the server counted.
func (r *rep) checkFeed(d *deployment) {
	var loopFree, reachSat int
	for _, rl := range d.results {
		for _, res := range rl.take() {
			r.o.attempted++
			if res.Check == reachCheckName {
				r.o.reach++
			}
			switch {
			case res.Check == loopCheckName && res.Loop == flash.LoopFound:
				r.o.fail("%s: LoopFound in epoch %s subspace %d witness %v", r.s.Name, res.Epoch, res.Subspace, res.Witness)
			case res.Check == loopCheckName && res.Loop == flash.LoopFree:
				loopFree++
			case res.Check == reachCheckName && res.Verdict == flash.VerdictUnsatisfied:
				r.o.fail("%s: reachability unsatisfied in epoch %s subspace %d", r.s.Name, res.Epoch, res.Subspace)
			case res.Check == reachCheckName && res.Verdict == flash.VerdictSatisfied:
				reachSat++
			}
		}
	}
	r.o.attempted++
	if loopFree == 0 {
		r.o.fail("%s: no loop-freedom verdict was pushed", r.s.Name)
	}
	if r.s.Reach != nil {
		r.o.attempted++
		if reachSat == 0 {
			r.o.fail("%s: no reachability verdict was pushed", r.s.Name)
		}
	}
	snap := d.reg.Snapshot()
	for _, c := range []string{"feed_errors", "quarantines_total"} {
		if v, _ := snap.Get("serve", c); v > 0 {
			r.o.fail("%s: serve/%s = %d", r.s.Name, c, v)
		}
	}
}

// A run times extra set-ups before measuring, so setup_s is a median
// over enough samples whatever the workload's deployment count: at
// least setupTrials of them and at least setupSpan of set-up time, so
// that the fast storm-ecmp set-ups too span a second of the host's
// speed, but no more than setupMaxTrials.
const (
	setupTrials    = 30
	setupMaxTrials = 400
	setupSpan      = time.Second
)

// warmUp times the extra set-ups, each closed straight away.
func (r *rep) warmUp(ctx context.Context) error {
	start := time.Now()
	for i := 0; i < setupMaxTrials && (i < setupTrials || time.Since(start) < setupSpan); i++ {
		d, err := r.setUp(ctx)
		if err != nil {
			return err
		}
		d.close()
	}
	return nil
}

// runUntraced repeats deployments of the workload until the measuring
// budget is spent; a deployment is started only if one more of the
// last one's length still fits, and at least one always runs.
func runUntraced(ctx context.Context, s *Stream, bodies [][]byte, seconds float64) (*outcome, error) {
	o := &outcome{}
	r := &rep{s: s, bodies: bodies, o: o}
	begin := time.Now()
	if err := r.warmUp(ctx); err != nil {
		return nil, err
	}
	var last time.Duration
	for {
		t := time.Now()
		if err := r.run(ctx); err != nil {
			return nil, err
		}
		last = time.Since(t)
		if time.Since(begin)+last > time.Duration(seconds*float64(time.Second)) {
			return o, nil
		}
	}
}
