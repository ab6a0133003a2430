package harness

import (
	"reflect"
	"strings"
	"testing"

	"cfd/internal/config"
	"cfd/internal/fault"
	"cfd/internal/mem"
	"cfd/internal/pipeline"
	"cfd/internal/prog"
	"cfd/internal/workload"
)

// registerSmallMCF installs a transient copy of mcflike whose default size
// is small enough to run at Scale 1, so a Runner and a direct RunProgram
// call build the same program.
func registerSmallMCF(t *testing.T) (*workload.Spec, int64) {
	t.Helper()
	mcf, ok := workload.ByName("mcflike")
	if !ok {
		t.Fatal("mcflike not registered")
	}
	s := &workload.Spec{
		Name:     "mcfsmall-test",
		Variants: mcf.Variants,
		DefaultN: 3000, TestN: 256,
		Build: func(v workload.Variant, n int64) (*prog.Program, *mem.Memory, error) {
			return mcf.Build(v, n)
		},
	}
	if err := workload.Register(s); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Deregister(s.Name) })
	return s, s.DefaultN
}

// TestRunProgramMatchesRunner: for one spec at Scale 1, a Runner's Result
// and RunProgram's on the same program are equal, both verified against
// the emulator, and RunProgram leaves its initial memory unwritten.
func TestRunProgramMatchesRunner(t *testing.T) {
	s, n := registerSmallMCF(t)
	rs := RunSpec{Workload: s.Name, Variant: workload.CFD, Config: config.SandyBridge(),
		SampleEvery: 500, SampleMSHR: true}

	r := NewRunner(1)
	r.Verify = true
	want, err := r.Run(rs)
	if err != nil {
		t.Fatal(err)
	}

	p, m, err := s.Build(rs.Variant, n)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Clone()
	got, core, err := RunProgram(rs, p, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if core == nil {
		t.Fatal("RunProgram returned a nil core on success")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunProgram result differs from the Runner's:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	if got.Timeseries == nil || got.Occupancy == nil || len(got.MSHRHist) == 0 {
		t.Error("SampleEvery/SampleMSHR did not reach the run")
	}
	if !m.Equal(before) {
		t.Error("RunProgram wrote its initial memory")
	}
}

// TestRunProgramWatchdogKeepsCore: a run stopped by a 500-cycle watchdog
// still hands back its core, and its error is the Runner's, word for word.
func TestRunProgramWatchdogKeepsCore(t *testing.T) {
	s, n := registerSmallMCF(t)
	rs := RunSpec{Workload: s.Name, Variant: workload.Base, Config: config.SandyBridge()}

	r := NewRunner(1)
	r.Verify = true
	r.MaxCycles = 500
	_, want := r.Run(rs)

	p, m, err := s.Build(rs.Variant, n)
	if err != nil {
		t.Fatal(err)
	}
	res, core, err := RunProgram(rs, p, m, true, pipeline.WithWatchdog(fault.WithTimeout(500, 0)))
	if res != nil {
		t.Error("a faulted run returned a Result")
	}
	if core == nil {
		t.Fatal("a faulted run returned a nil core")
	}
	if core.Stats.Cycles != 500 {
		t.Errorf("core stopped at cycle %d, want 500", core.Stats.Cycles)
	}
	f, ok := fault.As(err)
	if !ok || f.Kind != fault.WatchdogExpiry {
		t.Fatalf("err = %v, want a watchdog-expiry fault", err)
	}
	if want == nil || err.Error() != want.Error() {
		t.Errorf("err = %q, want the Runner's %q", err, want)
	}
	if !strings.HasPrefix(err.Error(), "harness: mcfsmall-test/base on sandybridge-like: ") {
		t.Errorf("err = %q does not name the run", err)
	}
}
