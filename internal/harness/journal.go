// Journal glue: how a Runner narrates its sweeps into the structured
// event journal (internal/obs/journal).
//
// Every event is emitted through the journal's buffered bus, so the
// sweep workers never wait on disk I/O; with a nil Journal the whole
// layer costs one nil test per call and allocates nothing (pinned by
// TestNilJournalAllocFree). A finished spec is described once, by its
// spec_done event: the Journal and OnProgress receive the same value.
// Spec-level events are sweep-scoped: bare
// Run/RunCtx calls outside a Sweep — the serial assembly phase of an
// experiment, replaying thousands of memoized lookups — are deliberately
// not journaled, so the journal records the campaign's work, not its
// bookkeeping.
package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"cfd/internal/fault"
	"cfd/internal/obs/journal"
	"cfd/internal/pipeline"
)

// runInfo says how one runCtx call materialized its result: served by
// the in-memory cache, restored from the persistent store, or simulated
// fresh (and, fresh only, whether the completion persisted to the
// store). It feeds the spec_done event.
type runInfo struct {
	cacheHit bool
	storeHit bool
	stored   bool
}

// sweepScope narrates one Sweep: its lifecycle events go to the Journal
// (a nil Journal drops them), and each spec_done also goes to OnProgress.
type sweepScope struct {
	r     *Runner
	seq   uint64
	total int

	ok        atomic.Int64
	failed    atomic.Int64
	storeHits atomic.Int64

	// progressMu serializes spec_done emission and OnProgress calls
	// across the sweep's workers, so OnProgress sees the events in the
	// Journal's order.
	progressMu sync.Mutex
}

// beginSweep opens the scope for a sweep of total specs.
func (r *Runner) beginSweep(total, jobs int) *sweepScope {
	s := &sweepScope{r: r, seq: r.sweepSeq.Add(1), total: total}
	r.Journal.Emit(journal.Event{Type: journal.SweepStart, Sweep: s.seq, Total: total, Jobs: jobs,
		Manifest: r.ManifestDigest})
	return s
}

// submit records a worker picking up one spec; key is rs.Key().
func (s *sweepScope) submit(rs RunSpec, key string) {
	s.r.Journal.Emit(journal.Event{
		Type: journal.SpecSubmit, Sweep: s.seq, Key: key,
		Workload: rs.Workload, Variant: string(rs.Variant), Config: rs.Config.Name,
	})
}

// done records one spec's terminal outcome: it builds the spec_done event
// once, emits it, and then hands the same value to OnProgress.
// Context-cancellation errors are not terminal — the spec never completed
// — so they reach neither listener; the sweep_finish counts then show the
// shortfall against total. key is rs.Key().
func (s *sweepScope) done(rs RunSpec, key string, res *Result, err error, info runInfo) {
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return
	}
	if info.storeHit {
		s.storeHits.Add(1)
	}
	if err == nil {
		s.ok.Add(1)
	} else {
		s.failed.Add(1)
	}
	r := s.r
	if r.Journal == nil && r.OnProgress == nil {
		return
	}
	var st *pipeline.Stats
	if res != nil {
		st = &res.Stats
	}
	ev := SpecDoneEvent(rs, key, st, err)
	ev.Sweep = s.seq
	ev.CacheHit, ev.StoreHit, ev.Stored = info.cacheHit, info.storeHit, info.stored
	if r.Store != nil {
		if skey, ok := r.storeKey(rs, key); ok {
			ev.StoreKey = skey
		}
	}
	if ev.Fault == fault.WatchdogExpiry.String() {
		r.Journal.Emit(journal.Event{
			Type: journal.WatchdogExpiry, Sweep: s.seq, Key: key,
			Workload: rs.Workload, Variant: string(rs.Variant), Config: rs.Config.Name,
		})
	}
	s.progressMu.Lock()
	r.Journal.Emit(ev)
	if r.OnProgress != nil {
		r.OnProgress(ev)
	}
	s.progressMu.Unlock()
}

// SpecDoneEvent fills a spec_done event from a run's spec, its stats (nil
// when the run produced none) and its error. key is rs.Key(). Sweeps add
// the sweep scope and how the result materialized; single-run tools emit
// it as is.
func SpecDoneEvent(rs RunSpec, key string, st *pipeline.Stats, err error) journal.Event {
	ev := journal.Event{
		Type: journal.SpecDone, Key: key,
		Workload: rs.Workload, Variant: string(rs.Variant), Config: rs.Config.Name,
	}
	if err != nil {
		ev.Status = "fault"
		ev.Error = err.Error()
		if f, ok := fault.As(err); ok {
			ev.Fault = f.Kind.String()
		}
		return ev
	}
	ev.Status = "ok"
	if st != nil {
		ev.Cycles = st.Cycles
		ev.Retired = st.Retired
		if st.Cycles > 0 {
			ev.IPC = float64(st.Retired) / float64(st.Cycles)
		}
	}
	return ev
}

// finish closes the scope with the sweep's terminal counts, including
// how many completions were resume skips restored from the store.
func (s *sweepScope) finish() {
	s.r.Journal.Emit(journal.Event{
		Type: journal.SweepFinish, Sweep: s.seq, Total: s.total,
		Completed: int(s.ok.Load()), Failed: int(s.failed.Load()),
		ResumeSkips: int(s.storeHits.Load()),
	})
}
