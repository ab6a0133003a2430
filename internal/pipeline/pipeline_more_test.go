package pipeline

import (
	"testing"

	"cfd/internal/cache"
	"cfd/internal/config"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/prog"
	"cfd/internal/stats"
)

// tqOverflowProg pushes trip counts around the 16-bit limit; overflowed
// entries divert to an unmodified fallback loop via PopTQOV (§IV-C4).
func tqOverflowProg(counts []uint64) (*prog.Program, *mem.Memory) {
	m := mem.New()
	m.WriteUint64s(0x10000, counts)
	b := prog.NewBuilder()
	b.Li(1, 0x10000)
	b.Li(2, int64(len(counts)))
	b.Label("gen")
	b.Load(isa.LD, 3, 1, 0)
	b.PushTQ(3)
	b.I(isa.ADDI, 1, 1, 8)
	b.I(isa.ADDI, 2, 2, -1)
	b.Branch(isa.BNE, 2, 0, "gen")
	b.Li(1, 0x10000)
	b.Li(2, int64(len(counts)))
	b.Li(4, 0) // sum of iterations
	b.Label("outer")
	b.PopTQOV("fallback")
	b.Jump("test")
	b.Label("body")
	b.I(isa.ADDI, 4, 4, 1)
	b.Label("test")
	b.BranchTCR("body")
	b.Jump("next")
	// Fallback: the unmodified counted loop for overflowed trip counts.
	b.Label("fallback")
	b.Load(isa.LD, 5, 1, 0)
	b.Label("fb")
	b.I(isa.ADDI, 4, 4, 1)
	b.I(isa.ADDI, 5, 5, -1)
	b.Branch(isa.BNE, 5, 0, "fb")
	b.Label("next")
	b.I(isa.ADDI, 1, 1, 8)
	b.I(isa.ADDI, 2, 2, -1)
	b.Branch(isa.BNE, 2, 0, "outer")
	b.Li(30, 0x9000)
	b.Store(isa.SD, 4, 30, 0)
	b.Halt()
	return b.MustBuild(), m
}

func TestTQOverflowFallback(t *testing.T) {
	counts := []uint64{3, 70000, 5, 1 << 17, 2}
	p, m := tqOverflowProg(counts)
	core := runBoth(t, testConfig(), p, m)
	var want uint64
	for _, c := range counts {
		want += c
	}
	if got := core.Mem().Read(0x9000, 8); got != want {
		t.Errorf("iteration sum = %d, want %d", got, want)
	}
	if core.Stats.TQPops != uint64(len(counts)) {
		t.Errorf("TQPops = %d, want %d", core.Stats.TQPops, len(counts))
	}
}

func TestAlternatePredictorsRunCorrectly(t *testing.T) {
	const n = 600
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(n, 100, 17))
	p := condLoop(0x10000, 0x80000, n, 50)
	for _, kind := range []config.PredictorKind{config.PredBimodal, config.PredGshare} {
		cfg := testConfig()
		cfg.Predictor = kind
		core := runBoth(t, cfg, p, m)
		if core.Stats.Mispredicts == 0 {
			t.Errorf("%v: no mispredictions on random data", kind)
		}
	}
}

func TestWindowSweepConfigsRun(t *testing.T) {
	const n = 400
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(n, 100, 19))
	p := condLoop(0x10000, 0x80000, n, 50)
	var prev uint64
	for _, cfg := range config.WindowSweep() {
		cfg.Cache = testConfig().Cache
		core := runBoth(t, cfg, p, m)
		if prev != 0 && core.Stats.Cycles > prev*2 {
			t.Errorf("%s: cycles %d regressed badly vs %d", cfg.Name, core.Stats.Cycles, prev)
		}
		prev = core.Stats.Cycles
	}
}

func TestEnergyMeterAccumulates(t *testing.T) {
	const n = 100 // within the BQ size: cfdLoop is not strip-mined
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(n, 100, 23))
	core := runBoth(t, testConfig(), cfdLoop(0x10000, 0x80000, n, 50), m)
	if core.Meter.Total() <= 0 || core.Meter.Dynamic() <= 0 {
		t.Error("energy not accounted")
	}
	if core.Meter.QueueEnergy() <= 0 {
		t.Error("BQ energy not accounted on a CFD program")
	}
	if core.Meter.QueueEnergy() > core.Meter.Dynamic()/100 {
		t.Error("queue energy implausibly large relative to core energy")
	}
}

func TestOracleUndoAndReset(t *testing.T) {
	o := NewOracle()
	o.Record(4, true)
	o.Record(4, false)
	if v, ok := o.Next(4); !ok || !v {
		t.Fatal("first outcome")
	}
	o.Undo(4)
	if v, ok := o.Next(4); !ok || !v {
		t.Fatal("undo did not rewind")
	}
	if v, ok := o.Next(4); !ok || v {
		t.Fatal("second outcome")
	}
	if _, ok := o.Next(4); ok {
		t.Fatal("exhausted trace must report !ok")
	}
	o.Reset()
	if v, ok := o.Next(4); !ok || !v {
		t.Fatal("reset did not rewind")
	}
	if !o.Covers(4) || o.Covers(8) {
		t.Error("Covers wrong")
	}
	o.Undo(99) // undo on unknown pc must be harmless
}

func TestDumpRenders(t *testing.T) {
	core, err := New(testConfig(), condLoop(0x10000, 0x80000, 10, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := core.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	out := core.Dump()
	for _, want := range []string{"cycle", "rob", "BQ head", "VQ head"} {
		if !contains(out, want) {
			t.Errorf("Dump missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestHaltMidSpeculation: a HALT fetched down a wrong path must not end the
// simulation; recovery clears it.
func TestHaltMidSpeculation(t *testing.T) {
	b := prog.NewBuilder()
	b.Li(1, 0x10000)
	b.Li(2, 200)
	b.Li(9, 0)
	b.Label("loop")
	b.Load(isa.LD, 3, 1, 0)
	b.I(isa.ANDI, 4, 3, 1)
	// When mispredicted taken, the wrong path falls into HALT quickly.
	b.Branch(isa.BNE, 4, 0, "over")
	b.Halt() // only reached architecturally when r4 == 0... never: r4==0 falls through!
	b.Label("over")
	b.I(isa.ADDI, 9, 9, 1)
	b.I(isa.ADDI, 1, 1, 8)
	b.I(isa.ADDI, 2, 2, -1)
	b.Branch(isa.BNE, 2, 0, "loop")
	b.Li(30, 0x9000)
	b.Store(isa.SD, 9, 30, 0)
	b.Halt()
	m := mem.New()
	// All odd values: the branch is always taken; a predictor warming up
	// will mispredict some and speculatively fetch the HALT.
	vals := make([]uint64, 200)
	for i := range vals {
		vals[i] = uint64(2*i + 1)
	}
	m.WriteUint64s(0x10000, vals)
	core := runBoth(t, testConfig(), b.MustBuild(), m)
	if got := core.Mem().Read(0x9000, 8); got != 200 {
		t.Errorf("count = %d, want 200", got)
	}
}

// TestParkedCompletionEvents drives completion events past the ring
// horizon. A memory latency above eventRing parks each DRAM fill in the
// ring's last bucket, and complete must reschedule it rather than fire it
// early. Two MSHRs queue the misses, so later fills land more than two
// rings out and park twice. The cycle count and CPI stack are pinned, so
// a ring that reorders, drops or delays a parked event fails here.
func TestParkedCompletionEvents(t *testing.T) {
	cfg := testConfig()
	cfg.Cache.MemLatency = 20000
	cfg.Cache.NumMSHRs = 2
	if cfg.Cache.MemLatency <= eventRing {
		t.Fatalf("MemLatency %d does not exceed the %d-bucket ring", cfg.Cache.MemLatency, eventRing)
	}
	const n = 64
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(n, 100, 7))
	// Pinned from the earlier slice-per-bucket ring, which the node pool
	// must match exactly.
	const wantCycles, wantRetired = 160135, 513
	wantCPI := [stats.NumCPIBuckets]uint64{
		stats.CPIRetiring:      270,
		stats.CPIFetchStall:    9,
		stats.CPIRecoverNoData: 9,
		stats.CPIRecoverL1:     264,
		stats.CPIRecoverMEM:    22,
		stats.CPIMemL1:         35,
		stats.CPIMemDRAM:       159376,
		stats.CPIBackend:       150,
	}
	// Idle skip finds a parked event in the ring's last bucket; stepping
	// every cycle must reach the same result.
	for _, opts := range [][]Option{nil, {WithoutIdleSkip()}} {
		core := runBoth(t, cfg, condLoop(0x10000, 0x80000, n, 50), m, opts...)
		if core.Stats.Cycles != wantCycles || core.Stats.Retired != wantRetired {
			t.Errorf("cycles %d, retired %d; want %d, %d", core.Stats.Cycles, core.Stats.Retired, wantCycles, wantRetired)
		}
		if core.Stats.CPI.Buckets != wantCPI {
			t.Errorf("CPI buckets %v, want %v", core.Stats.CPI.Buckets, wantCPI)
		}
	}
}

// TestSmallestValidConfigRuns sets every field config.Validate bounds
// below to its smallest accepted value at once: one port of each class,
// one-cycle latencies everywhere, direct-mapped caches of 8-byte lines
// with one MSHR, a one-set direct-mapped BTB and a one-entry RAS. Such a
// core must still match the emulator, not panic or deadlock.
func TestSmallestValidConfigRuns(t *testing.T) {
	cfg := testConfig()
	cfg.ALUPorts, cfg.MemPorts, cfg.BrPorts = 1, 1, 1
	cfg.MulLatency, cfg.DivLatency = 1, 1
	cfg.BTBLogSets, cfg.BTBWays, cfg.RASDepth = 0, 1, 1
	cfg.Cache.LineBytes, cfg.Cache.NumMSHRs, cfg.Cache.MemLatency = 8, 1, 1
	for _, l := range []*cache.LevelConfig{&cfg.Cache.L1, &cfg.Cache.L2, &cfg.Cache.L3} {
		l.Ways, l.Latency = 1, 1
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	const n = 100 // within BQ size: cfdLoop pushes every predicate first
	m := mem.New()
	m.WriteUint64s(0x10000, randomArray(n, 100, 23))
	runBoth(t, cfg, condLoop(0x10000, 0x80000, n, 50), m)
	runBoth(t, cfg, cfdLoop(0x10000, 0x80000, n, 50), m)

	b := prog.NewBuilder()
	b.Li(9, 3)
	b.Li(10, 5)
	b.Label("loop")
	b.Jal(31, "fn")
	b.I(isa.ADDI, 10, 10, -1)
	b.Branch(isa.BNE, 10, 0, "loop")
	b.Li(30, 0x9000)
	b.Store(isa.SD, 9, 30, 0)
	b.Halt()
	b.Label("fn")
	b.R(isa.MUL, 9, 9, 9)
	b.R(isa.DIV, 9, 9, 10)
	b.Jr(31)
	runBoth(t, cfg, b.MustBuild(), nil)
}
