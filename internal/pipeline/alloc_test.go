package pipeline

import (
	"runtime"
	"testing"

	"cfd/internal/config"
	"cfd/internal/mem"
	"cfd/internal/prog"
)

// TestPipelineSteadyStateZeroAllocs is the hot-loop allocation ceiling:
// once warm, Cycle() must not allocate at all. Rename holds pregs in a
// fixed free list, the completion ring takes its nodes from a pool that
// keeps every node it has grown to, the ROB ring builds uops in place — a
// regression in any of them shows up here as a fractional allocs-per-run.
func TestPipelineSteadyStateZeroAllocs(t *testing.T) {
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(2000, 100, 17))
	c, err := New(testConfig(), cfdLoop(0x10000, 0x80000, 2000, 50), m)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: let every pool, ring, and event slot reach its steady size.
	for i := 0; i < 20000; i++ {
		if c.done {
			t.Fatal("workload finished during warm-up; enlarge it")
		}
		if err := c.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			if c.done {
				t.Fatal("workload finished during measurement; enlarge it")
			}
			if err := c.Cycle(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got != 0 {
		t.Errorf("steady-state Cycle() allocates: %g allocs per 100 cycles, want 0", got)
	}
}

// TestNewAllocCeiling bounds what building a core costs: the number of
// allocations and the bytes they take. Every table — cache levels, BTB,
// predictor, rob ring, wakeup lists, completion ring — is one backing
// array, so the count does not grow with cache sets or window size; a
// table that goes back to one slice per set or per register multiplies it
// past the ceiling. The byte ceilings sit about 15% above the measured
// footprint, so a table that grows its entries or its length fails here.
func TestNewAllocCeiling(t *testing.T) {
	const ceiling = 64
	p := prog.NewBuilder().Halt().MustBuild()
	for _, tc := range []struct {
		cfg      config.Core
		maxBytes uint64
	}{
		{config.SandyBridge(), 1_225_000},
		{config.Scaled(640), 1_750_000},
	} {
		build := func() {
			if _, err := New(tc.cfg, p, nil); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(10, build)
		if got > ceiling {
			t.Errorf("%s: New allocates %g times, ceiling %d", tc.cfg.Name, got, ceiling)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > tc.maxBytes {
			t.Errorf("%s: New allocates %d bytes, ceiling %d", tc.cfg.Name, b, tc.maxBytes)
		} else {
			t.Logf("%s: New allocates %d bytes", tc.cfg.Name, b)
		}
	}
}
