package flash

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Pipeline wraps a System with the §7 "Implementation" extension: model
// update (Fast IMT) and requirement verification (CE2D) are decoupled so
// agents never block on detection work. Feed enqueues and returns
// immediately; deterministic results stream on Results, in order.
//
// Per-device ordering is preserved (a single worker drains the queue in
// arrival order; subspace parallelism still applies inside System.Feed).
//
// When the System was built WithBatch(n), the pipeline worker "gulps"
// up to n buffered native updates of consecutive same-epoch messages
// into a single System.FeedBatch dispatch — flush-on-epoch batching: an
// epoch change in the queue always cuts the batch, so epoch barriers
// and CE2D result order are untouched, and an idle queue drains
// immediately (batching only engages when messages are actually
// waiting, i.e. exactly when amortization helps).
type Pipeline struct {
	sys *System

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []Msg
	enqueued []time.Time // parallel to queue; non-nil only when instrumented
	closed   bool
	err      error

	results chan Result
	done    chan struct{}

	m pmetrics
}

// pmetrics holds resolved observability handles; the zero value is the
// uninstrumented no-op state.
type pmetrics struct {
	fed        *obs.Counter   // messages accepted by Feed
	emitted    *obs.Counter   // results delivered on Results
	gulps      *obs.Counter   // FeedBatch dispatches issued
	gulped     *obs.Counter   // extra messages coalesced into a gulp
	queueDepth *obs.Gauge     // messages waiting in the queue
	drainNs    *obs.Histogram // enqueue → verification-done latency
}

// NewPipeline starts the pipeline worker. Callers must eventually Close
// it and drain Results. If the System was built WithMetrics, the
// pipeline publishes queue depth and drain latency under its registry's
// "pipeline" sub-registry.
func NewPipeline(sys *System, buffer int) *Pipeline {
	p := &Pipeline{
		sys:     sys,
		results: make(chan Result, buffer),
		done:    make(chan struct{}),
	}
	if reg := sys.Metrics().Sub("pipeline"); reg != nil {
		p.m = pmetrics{
			fed:        reg.Counter("fed"),
			emitted:    reg.Counter("results"),
			gulps:      reg.Counter("gulps"),
			gulped:     reg.Counter("gulped"),
			queueDepth: reg.Gauge("queue_depth"),
			drainNs:    reg.Histogram("drain_ns"),
		}
	}
	p.cond = sync.NewCond(&p.mu)
	go p.run()
	return p
}

// FeedContext enqueues one agent message; it never blocks on
// verification. It returns ErrClosed (wrapped) after Close, or the first
// verification error once the pipeline has failed. A canceled context
// rejects the message before it is enqueued; the context is consulted
// only on entry and does not cancel verification work already queued.
func (p *Pipeline) FeedContext(ctx context.Context, m Msg) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.err != nil {
		return p.err
	}
	p.queue = append(p.queue, m)
	if p.m.drainNs != nil {
		p.enqueued = append(p.enqueued, time.Now())
	}
	p.m.fed.Inc()
	p.m.queueDepth.Set(int64(len(p.queue)))
	p.cond.Signal()
	return nil
}

// Results streams deterministic detection results. The channel closes
// after Close once the queue has drained.
func (p *Pipeline) Results() <-chan Result { return p.results }

// Close stops intake, waits for the queue to drain, and closes Results.
// It returns the first verification error, if any.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.cond.Signal()
	}
	p.mu.Unlock()
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

//flashvet:allow ctxfeed — the drain worker outlives every Feed caller; queued work is cancelled via Close, not a context
func (p *Pipeline) run() {
	defer close(p.done)
	defer close(p.results)
	// A panic escaping the worker would leak the channels and deadlock
	// Close; record it as the pipeline's error instead. (System.Feed
	// already quarantines panicking subspace workers; this guards the
	// pipeline's own bookkeeping and result fan-out.)
	defer func() {
		if r := recover(); r != nil {
			if l := p.sys.Logger(); l != nil {
				l.Printf("flash: pipeline: worker panic: %v", r)
			}
			p.mu.Lock()
			if p.err == nil {
				p.err = fmt.Errorf("flash: pipeline worker panic: %v", r)
			}
			p.cond.Signal()
			p.mu.Unlock()
		}
	}()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed && p.err == nil {
			p.cond.Wait()
		}
		if p.err != nil || (p.closed && len(p.queue) == 0) {
			p.mu.Unlock()
			return
		}
		// Gulp: take the head message, then extend with consecutive
		// messages of the same epoch while the buffered native-update
		// count stays under the batch bound. An epoch change always cuts
		// the gulp (flush-on-epoch).
		take := 1
		if max := p.sys.cfg.Batch; max > 1 {
			budget := max - len(p.queue[0].Updates)
			for take < len(p.queue) &&
				p.queue[take].Epoch == p.queue[0].Epoch &&
				budget >= len(p.queue[take].Updates) {
				budget -= len(p.queue[take].Updates)
				take++
			}
		}
		batch := append([]Msg(nil), p.queue[:take]...)
		p.queue = p.queue[take:]
		var enqueuedAt time.Time
		if len(p.enqueued) > 0 {
			enqueuedAt = p.enqueued[0] // oldest message of the gulp
			drop := take
			if drop > len(p.enqueued) {
				drop = len(p.enqueued)
			}
			p.enqueued = p.enqueued[drop:]
		}
		p.m.queueDepth.Set(int64(len(p.queue)))
		p.mu.Unlock()

		p.m.gulps.Inc()
		p.m.gulped.Add(int64(take - 1))
		results, err := p.sys.FeedBatch(context.Background(), batch)
		if err != nil {
			if l := p.sys.Logger(); l != nil {
				l.Printf("flash: pipeline: verification failed: %v", err)
			}
			p.mu.Lock()
			p.err = err
			p.cond.Signal()
			p.mu.Unlock()
			return
		}
		if p.m.drainNs != nil && !enqueuedAt.IsZero() {
			p.m.drainNs.Observe(time.Since(enqueuedAt))
		}
		for _, r := range results {
			p.results <- r
			p.m.emitted.Inc()
		}
	}
}
