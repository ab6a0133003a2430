package harness

import (
	"errors"
	"fmt"

	"cfd/internal/fault"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
)

// ProgressEvent is the spec_done journal event a Sweep hands to
// OnProgress: the same value it emits to the Journal.
type ProgressEvent = journal.Event

// harness trace rows: a single "sweep" track under the harness process.
const (
	harnessTracePID = 1
	harnessTraceTID = 1
)

// Trace renders every completed run as a Chrome/Perfetto span on a virtual
// timeline: runs are laid end to end in spec-key order, each span as wide
// as the run's simulated cycles. Wall-clock plays no part, so the trace is
// byte-identical for any Jobs setting. Spans carry the run's cycles, IPC,
// and per-spec cache-hit count; failed runs render on the "fault" category
// with the fault kind.
func (r *Runner) Trace() *obs.Trace {
	tr := obs.NewTrace()
	tr.NameProcess(harnessTracePID, "cfd experiment harness")
	tr.NameThread(harnessTracePID, harnessTraceTID, "sweep (virtual time)")
	var ts uint64
	for _, s := range r.finished() {
		spec := s.e.spec
		name := fmt.Sprintf("%s/%s @ %s", spec.Workload, spec.Variant, spec.Config.Name)
		args := map[string]interface{}{"cacheHits": s.hits}
		cat := "run"
		dur := uint64(1)
		if s.e.err != nil {
			cat = "fault"
			kind := "error"
			var f *fault.Fault
			if errors.As(s.e.err, &f) {
				kind = f.Kind.String()
			}
			args["fault"] = kind
		} else {
			st := &s.e.res.Stats
			dur = st.Cycles
			args["cycles"] = st.Cycles
			args["ipc"] = float64(st.Retired) / float64(st.Cycles)
		}
		tr.Span(harnessTracePID, harnessTraceTID, name, cat, ts, dur, args)
		ts += dur
	}
	return tr
}

// RegisterMetrics registers the Runner's cache counters as pull-based
// probes. No-op on a nil registry.
func (r *Runner) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterProbe("harness.lookups", obs.ProbeFunc(func() float64 { return float64(r.lookups.Load()) }))
	reg.RegisterProbe("harness.simulations", obs.ProbeFunc(func() float64 { return float64(r.simulations.Load()) }))
	reg.RegisterProbe("harness.cache_hits", obs.ProbeFunc(func() float64 { return float64(r.cacheHits.Load()) }))
}
