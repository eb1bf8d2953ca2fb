package flash

import (
	"time"

	"repro/internal/ce2d"
	"repro/internal/imt"
	"repro/internal/sched"
)

// This file is the consolidated statistics surface: StatsSnapshot is the
// one structure operators read (the /v1/stats endpoint serves it as
// JSON).

// SchedulerStats reports work-stealing scheduler activity (tasks run,
// home tokens stolen, Wait barriers) plus the effective worker count.
type SchedulerStats struct {
	Tasks      uint64 `json:"tasks"`
	Steals     uint64 `json:"steals"`
	Dispatches uint64 `json:"dispatches"`
	Workers    int    `json:"workers"`
}

// CacheStats aggregates the per-engine ITE computed-cache counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (c CacheStats) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// GCStats aggregates in-engine garbage-collection activity across
// subspace engines.
type GCStats struct {
	Runs           uint64 `json:"runs"`            // completed mark-and-sweep passes
	ReclaimedNodes uint64 `json:"reclaimed_nodes"` // nodes swept across all passes
}

// TransformStats is the Fast IMT cost breakdown summed across subspace
// workers (and, for a System, across live per-epoch verifiers).
type TransformStats struct {
	MapTime    time.Duration `json:"map_ns"`
	ReduceTime time.Duration `json:"reduce_ns"`
	ApplyTime  time.Duration `json:"apply_ns"`
	Blocks     int           `json:"blocks"`
	Updates    int           `json:"updates"`
	Atomic     int           `json:"atomic"`
	Aggregated int           `json:"aggregated"`
}

// Total returns the summed pipeline time (Map + Reduce + Apply).
func (t TransformStats) Total() time.Duration {
	return t.MapTime + t.ReduceTime + t.ApplyTime
}

// add folds one transformer's cost breakdown into the total.
func (t *TransformStats) add(s imt.Stats) {
	t.MapTime += s.MapTime
	t.ReduceTime += s.ReduceTime
	t.ApplyTime += s.ApplyTime
	t.Blocks += s.Blocks
	t.Updates += s.Updates
	t.Atomic += s.Atomic
	t.Aggregated += s.Aggregated
}

// StatsSnapshot is a coherent point-in-time view of a ModelBuilder's or
// System's internals: one call, one pass over the workers, every facet
// — plus the serving plane's own gauges (live snapshots, verdict
// subscribers).
type StatsSnapshot struct {
	// Subspaces is the number of parallel subspace workers.
	Subspaces int `json:"subspaces"`
	// Scheduler counts work-stealing scheduler activity.
	Scheduler SchedulerStats `json:"scheduler"`
	// Cache sums the ITE computed-cache counters across engines,
	// including atom engines replaced by the hybrid cutover.
	Cache CacheStats `json:"cache"`
	// GC sums in-engine mark-and-sweep activity.
	GC GCStats `json:"gc"`
	// Transform is the Fast IMT cost breakdown (Table 3's time columns).
	Transform TransformStats `json:"transform"`
	// PredicateOps counts BDD operations (Table 3's "# Predicate
	// Operations").
	PredicateOps uint64 `json:"predicate_ops"`
	// ECs is the total equivalence-class count. For a System it sums
	// every live per-epoch verifier's model.
	ECs int `json:"ecs"`
	// MemoryNodes is live BDD nodes plus PAT nodes — the structural
	// memory footprint proxy of §5.5.
	MemoryNodes int `json:"memory_nodes"`
	// Poisoned lists quarantined subspace indices (System only; nil for
	// a ModelBuilder).
	Poisoned []int `json:"poisoned,omitempty"`
	// Snapshots is the number of live (unreleased) model snapshots
	// (System only).
	Snapshots int `json:"snapshots"`
	// Subscribers is the number of active verdict subscriptions (System
	// only).
	Subscribers int `json:"subscribers"`
}

// StatsSnapshot takes a coherent snapshot of the builder's counters in a
// single pass, flushing pending batched updates first so every facet
// reflects the same applied-block history.
func (b *ModelBuilder) StatsSnapshot() StatsSnapshot {
	b.Flush() //nolint:errcheck // flush errors resurface on the next ApplyBlock/Flush
	out := StatsSnapshot{Subspaces: len(b.workers), Scheduler: schedulerStats(b.pool)}
	for _, w := range b.workers {
		w.mu.Lock()
		out.Transform.add(w.transform.Stats())
		out.ECs += w.transform.Model().Len()
		out.MemoryNodes += w.transform.Store.NumNodes()
		w.addEngineStatsLocked(&out)
		w.mu.Unlock()
	}
	return out
}

// StatsSnapshot takes a coherent snapshot of the system's counters in a
// single pass. Model-derived facets (Transform, ECs, PAT nodes) sum over
// every live per-epoch verifier in every subspace.
func (s *System) StatsSnapshot() StatsSnapshot {
	out := StatsSnapshot{Subspaces: len(s.workers), Scheduler: schedulerStats(s.pool)}
	for _, w := range s.workers {
		w.mu.Lock()
		w.disp.EachVerifier(func(_ ce2d.Epoch, v *ce2d.Verifier) {
			tr := v.Transformer()
			out.Transform.add(tr.Stats())
			out.ECs += tr.Model().Len()
			out.MemoryNodes += tr.Store.NumNodes()
		})
		w.addEngineStatsLocked(&out)
		w.mu.Unlock()
	}
	out.Poisoned = s.PoisonedSubspaces()
	out.Snapshots = int(s.snapCount.Load())
	out.Subscribers = s.bus.subscribers()
	return out
}

func schedulerStats(p *sched.Pool) SchedulerStats {
	st := p.Stats()
	return SchedulerStats{Tasks: st.Tasks, Steals: st.Steals, Dispatches: st.Dispatches, Workers: p.Workers()}
}

// addEngineStatsLocked folds the subspace's engine totals (including the
// atom engine a cutover replaced) and live node count into out. Callers
// hold c.mu.
func (c *subspace) addEngineStatsLocked(out *StatsSnapshot) {
	t := c.countersLocked()
	out.Cache.Hits += t.cacheHits
	out.Cache.Misses += t.cacheMisses
	out.Cache.Evictions += t.cacheEvictions
	out.GC.Runs += t.gcRuns
	out.GC.ReclaimedNodes += t.gcReclaimed
	out.PredicateOps += t.ops
	out.MemoryNodes += c.eng.NumNodes()
}
