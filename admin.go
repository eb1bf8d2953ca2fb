package flash

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"

	"repro/internal/obs"
)

// Health is one component's degradation report for /healthz. The zero
// value means healthy.
type Health struct {
	Degraded bool
	Reasons  []string
}

// merge folds another component's report into h.
func (h *Health) merge(o Health) {
	if o.Degraded {
		h.Degraded = true
		h.Reasons = append(h.Reasons, o.Reasons...)
	}
}

// AdminOption configures NewAdminHandler.
type AdminOption interface {
	applyAdmin(*adminOpts)
}

// adminOptionFunc adapts a plain function to the AdminOption interface.
type adminOptionFunc func(*adminOpts)

func (f adminOptionFunc) applyAdmin(o *adminOpts) { f(o) }

type adminOpts struct {
	reg        *obs.Registry
	health     []func() Health
	sys        *System
	builder    *ModelBuilder
	subBuffer  int
	checkpoint func() (CheckpointInfo, error)
	restoring  func() (pending, preloaded int)
	shards     func() any
}

// WithAdminMetrics attaches the observability registry served by
// /metrics (and published under expvar).
func WithAdminMetrics(reg *obs.Registry) AdminOption {
	return adminOptionFunc(func(o *adminOpts) { o.reg = reg })
}

// WithAdminHealth appends health sources polled by /healthz (e.g.
// System.Health, Server.Health).
func WithAdminHealth(health ...func() Health) AdminOption {
	return adminOptionFunc(func(o *adminOpts) { o.health = append(o.health, health...) })
}

// WithAdminSystem mounts the management API (/v1/stats, /v1/specs,
// /v1/whatif, /v1/subscriptions) over a running System.
func WithAdminSystem(sys *System) AdminOption {
	return adminOptionFunc(func(o *adminOpts) { o.sys = sys })
}

// WithAdminBuilder serves /v1/stats from a ModelBuilder (for offline
// deployments without a System).
func WithAdminBuilder(b *ModelBuilder) AdminOption {
	return adminOptionFunc(func(o *adminOpts) { o.builder = b })
}

// WithAdminCheckpoint mounts POST /v1/checkpoint: each request runs fn
// (typically Server.Checkpoint or System.Checkpoint bound to the
// configured directory) and returns the CheckpointInfo as JSON. Without
// this option the endpoint answers 404.
func WithAdminCheckpoint(fn func() (CheckpointInfo, error)) AdminOption {
	return adminOptionFunc(func(o *adminOpts) { o.checkpoint = fn })
}

// WithAdminRestoring wires warm-restart progress (typically
// Server.RestoreProgress) into /v1/healthz: while any
// checkpoint-restored agent stream has not yet reconnected, the probe
// answers 503 with first line "restoring" and a progress line, so
// load balancers hold traffic until replay has caught up.
func WithAdminRestoring(fn func() (pending, preloaded int)) AdminOption {
	return adminOptionFunc(func(o *adminOpts) { o.restoring = fn })
}

// WithAdminShards mounts GET /v1/shards: each request runs fn
// (typically the shard coordinator's Status method) and returns its
// value as JSON. The parameter is an untyped thunk so the root package
// never depends on the coordinator's types — flashcoord binds the two.
// Without this option the endpoint answers 404.
func WithAdminShards(fn func() any) AdminOption {
	return adminOptionFunc(func(o *adminOpts) { o.shards = fn })
}

// WithAdminSubscriptionBuffer bounds each SSE subscription's delivery
// buffer (default 64 events).
func WithAdminSubscriptionBuffer(n int) AdminOption {
	return adminOptionFunc(func(o *adminOpts) {
		if n > 0 {
			o.subBuffer = n
		}
	})
}

// NewAdminHandler serves the operational endpoints of a Flash
// deployment, versioned under /v1 with a uniform JSON error envelope
// ({"error": {"code", "message"}}) on failures:
//
//	/v1/healthz        liveness/degradation probe (text)
//	/v1/metrics        the observability registry as indented JSON
//	/v1/stats          StatsSnapshot of the mounted System (or builder)
//	/v1/specs          configured checks merged with current verdicts
//	/v1/whatif         POST a what-if transaction (see api.go for shapes)
//	/v1/subscriptions  verdict snapshot (JSON) or live push (SSE)
//	/v1/checkpoint     POST: write a checkpoint now (WithAdminCheckpoint)
//	/v1/shards         shard coordinator placement/lag status (WithAdminShards)
//
// /metrics and /healthz remain unversioned aliases for scrapers, and
// the standard debug endpoints (/debug/vars, /debug/pprof/*) are always
// mounted. cmd/flashd mounts the handler on the -admin listener.
//
// Health sources are polled on each /healthz request: all healthy
// yields "ok"; any degradation yields "degraded" plus one reason per
// line. The status code stays 200 either way — degradation means
// reduced coverage (a quarantined subspace or device), not death.
// The one exception is a warm restart still waiting for restored agent
// streams to reconnect (WithAdminRestoring): that yields 503 with
// "restoring" and a replay-progress line until the suffix catches up.
func NewAdminHandler(opts ...AdminOption) http.Handler {
	o := adminOpts{subBuffer: 64}
	for _, opt := range opts {
		opt.applyAdmin(&o)
	}
	publishExpvar(o.reg)
	h := &apiHandler{opts: o}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/v1/healthz", h.healthz)
	mux.HandleFunc("/metrics", h.metrics)
	mux.HandleFunc("/v1/metrics", h.metrics)
	mux.HandleFunc("/v1/stats", h.stats)
	mux.HandleFunc("/v1/specs", h.specs)
	mux.HandleFunc("/v1/whatif", h.whatIf)
	mux.HandleFunc("/v1/subscriptions", h.subscriptions)
	mux.HandleFunc("/v1/checkpoint", h.checkpoint)
	mux.HandleFunc("/v1/shards", h.shards)
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		writeAPIError(w, http.StatusNotFound, "not_found", "unknown endpoint "+r.URL.Path)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (h *apiHandler) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// A warm restart that is still waiting for checkpoint-restored agent
	// streams to reconnect is not ready: the model is valid but trails
	// the network until the replay suffix arrives. Unlike degradation
	// this is a 503 — it clears by itself and traffic should wait.
	if h.opts.restoring != nil {
		if pending, preloaded := h.opts.restoring(); pending > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("restoring\n"))
			fmt.Fprintf(w, "replaying: %d/%d restored streams reconnected\n", preloaded-pending, preloaded)
			return
		}
	}
	var agg Health
	for _, src := range h.opts.health {
		if src != nil {
			agg.merge(src())
		}
	}
	if !agg.Degraded {
		w.Write([]byte("ok\n"))
		return
	}
	w.Write([]byte("degraded\n"))
	for _, r := range agg.Reasons {
		w.Write([]byte(r + "\n"))
	}
}

// shards serves GET /v1/shards: the coordinator's placement status
// (shard → owned subspaces, health, log lag, rebalance count) from the
// thunk mounted by WithAdminShards.
func (h *apiHandler) shards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	if h.opts.shards == nil {
		writeAPIError(w, http.StatusNotFound, "not_found", "no shard coordinator mounted on this admin handler")
		return
	}
	writeAPIJSON(w, h.opts.shards())
}

// apiCheckpointInfo is the JSON shape of a completed checkpoint write.
type apiCheckpointInfo struct {
	Path      string `json:"path"`
	Bytes     int    `json:"bytes"`
	Subspaces int    `json:"subspaces"`
	Streams   int    `json:"streams"`
	TookNs    int64  `json:"took_ns"`
}

func (h *apiHandler) checkpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return
	}
	if h.opts.checkpoint == nil {
		writeAPIError(w, http.StatusNotFound, "not_found", "checkpointing not configured (start with -checkpoint-dir)")
		return
	}
	info, err := h.opts.checkpoint()
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "checkpoint_failed", err.Error())
		return
	}
	writeAPIJSON(w, apiCheckpointInfo{
		Path:      info.Path,
		Bytes:     info.Bytes,
		Subspaces: info.Subspaces,
		Streams:   info.Streams,
		TookNs:    info.Took.Nanoseconds(),
	})
}

func (h *apiHandler) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h.opts.reg.Snapshot())
}

// expvar publication is process-global and panics on duplicate names, so
// each registry is published at most once under "flash.<name>"; a second
// registry with the same name is skipped (it still appears on /metrics).
var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]bool{}
)

func publishExpvar(reg *obs.Registry) {
	if reg == nil {
		return
	}
	name := "flash." + reg.Name()
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] {
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, expvar.Func(func() any { return reg.Snapshot() }))
}
