// Package cfd is a cycle-level reproduction of "Control-Flow Decoupling:
// An Approach for Timely, Non-speculative Branching" (Sheikh, Tuck,
// Rotenberg; MICRO 2012 / IEEE TC 2014).
//
// The package exposes four layers:
//
//   - A 64-bit RISC ISA with the CFD co-processor extension (branch queue,
//     value queue, trip-count queue) plus an assembler-style program
//     builder ([NewProgram]).
//   - A functional emulator ([Emulate]) — the golden architectural model.
//   - A cycle-level out-of-order core with the CFD hardware in its fetch
//     and rename stages ([Simulate]), configured like the paper's Sandy
//     Bridge-like baseline ([Baseline]) or scaled windows ([ScaledWindow]).
//   - The paper's workloads and experiments: [Workloads] lists synthetic
//     analogs of the evaluated benchmarks in baseline/CFD/CFD+/DFD/TQ
//     variants, and [RunExperiment] regenerates any table or figure from
//     the paper's evaluation.
//
// Quick start:
//
//	res, err := cfd.Simulate("soplexlike", cfd.CFD, cfd.Baseline(), 50_000)
//	fmt.Println(res.Stats.IPC(), res.Stats.MPKI())
package cfd

import (
	"fmt"
	"io"

	"cfd/internal/config"
	"cfd/internal/emu"
	"cfd/internal/harness"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/pipeline"
	"cfd/internal/prog"
	"cfd/internal/workload"
	"cfd/internal/xform"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Program is an assembled CFD-RISC program.
	Program = prog.Program
	// Builder assembles Programs instruction by instruction.
	Builder = prog.Builder
	// Inst is a single CFD-RISC instruction.
	Inst = isa.Inst
	// Memory is the sparse data memory image.
	Memory = mem.Memory
	// Machine is the functional (architectural) emulator.
	Machine = emu.Machine
	// Core is the cycle-level out-of-order core.
	Core = pipeline.Core
	// CoreConfig parameterizes the cycle-level core.
	CoreConfig = config.Core
	// Stats are the simulation counters of one run.
	Stats = pipeline.Stats
	// Workload describes one benchmark analog and its variants.
	Workload = workload.Spec
	// Variant names a program transformation (Base, CFD, CFDPlus, ...).
	Variant = workload.Variant
	// Experiment regenerates one paper table or figure.
	Experiment = harness.Experiment
	// Runner executes and memoizes experiment simulation runs.
	Runner = harness.Runner
	// RunSpec identifies one harness simulation run.
	RunSpec = harness.RunSpec
	// Result is the outcome of one harness run.
	Result = harness.Result
	// Kernel is a structured loop the automatic CFD pass can transform
	// (the paper's compiler-pass analog, §III-B).
	Kernel = xform.Kernel
	// KernelParams carries the queue capacities the pass strip-mines
	// against; derive them from a core config with KernelParamsFor.
	KernelParams = xform.Params
)

// KernelParamsFor extracts the transformation parameters (BQ/VQ/TQ
// capacities) from a core configuration.
func KernelParamsFor(cfg CoreConfig) KernelParams { return xform.ParamsFrom(cfg) }

// Workload variants.
const (
	Base    = workload.Base
	CFD     = workload.CFD
	CFDPlus = workload.CFDPlus
	DFD     = workload.DFD
	CFDDFD  = workload.CFDDFD
	CFDTQ   = workload.CFDTQ
	CFDBQ   = workload.CFDBQ
	CFDBQTQ = workload.CFDBQTQ
)

// NewProgram returns an empty program builder.
func NewProgram() *Builder { return prog.NewBuilder() }

// NewMemory returns an empty memory image.
func NewMemory() *Memory { return mem.New() }

// Baseline returns the paper's Sandy Bridge-like core configuration
// (Fig 17a).
func Baseline() CoreConfig { return config.SandyBridge() }

// ScaledWindow returns the baseline scaled to a larger instruction window
// (ROB sizes 168..640; Figs 2b, 21b, 23).
func ScaledWindow(robSize int) CoreConfig { return config.Scaled(robSize) }

// Emulate runs a program on the functional emulator until HALT or limit
// retired instructions (0 = unlimited) and returns the machine.
func Emulate(p *Program, m *Memory, limit uint64) (*Machine, error) {
	mc := emu.New(p, m)
	if err := mc.Run(limit); err != nil {
		return mc, err
	}
	return mc, nil
}

// CrossCheck runs p from the initial memory m twice — once on the
// cycle-level core under cfg and once on the functional emulator, the
// golden architectural model — and returns an error describing the first
// divergence in retired-instruction count, architectural registers, or
// final memory (nil if the two agree). m may be nil; it is cloned for both
// runs and never written. The run goes through harness.RunProgram, the
// same run-and-verify path as the harness's Verify mode and cfdsim
// -verify, so errors carry its wording with the program named
// custom/program.
func CrossCheck(cfg CoreConfig, p *Program, m *Memory) error {
	if m == nil {
		m = mem.New()
	}
	_, _, err := harness.RunProgram(RunSpec{Workload: "custom", Variant: "program", Config: cfg}, p, m, true)
	return err
}

// NewCore builds a cycle-level core for a custom program.
func NewCore(cfg CoreConfig, p *Program, m *Memory) (*Core, error) {
	return pipeline.New(cfg, p, m)
}

// Workloads lists the registered benchmark analogs.
func Workloads() []*Workload { return workload.All() }

// WorkloadByName looks up one workload.
func WorkloadByName(name string) (*Workload, bool) { return workload.ByName(name) }

// Simulate builds the named workload variant at size n (0 = the workload's
// default size) and runs it to completion on the cycle-level core.
func Simulate(name string, v Variant, cfg CoreConfig, n int64) (*Core, error) {
	s, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("cfd: unknown workload %q", name)
	}
	if n == 0 {
		n = s.DefaultN
	}
	p, m, err := s.Build(v, n)
	if err != nil {
		return nil, err
	}
	_, core, err := harness.RunProgram(RunSpec{Workload: name, Variant: v, Config: cfg}, p, m, false)
	if err != nil {
		return nil, err
	}
	return core, nil
}

// NewRunner returns an experiment runner; scale multiplies every
// workload's default size (1.0 = the full evaluation). The Runner is safe
// for concurrent use and fans each experiment's simulations across
// GOMAXPROCS workers by default; set Runner.Jobs = 1 for strictly serial
// runs (the output is byte-identical either way) and Runner.Verify = true
// to cross-check every run against the functional emulator.
func NewRunner(scale float64) *Runner { return harness.NewRunner(scale) }

// Experiments lists every reproducible table and figure.
func Experiments() []*Experiment { return harness.AllExperiments() }

// RunExperiment regenerates one paper table/figure (by ID such as "fig18"
// or "table1"), writing its rows to w. Simulations fan out across
// GOMAXPROCS workers; use RunExperimentWith to control parallelism or
// enable differential verification.
func RunExperiment(id string, w io.Writer, scale float64) error {
	return RunExperimentWith(id, w, scale, 0, false)
}

// RunExperimentWith is RunExperiment with explicit parallelism (jobs = 0
// means GOMAXPROCS, 1 means serial) and optional differential verification
// of every simulation against the emulator.
func RunExperimentWith(id string, w io.Writer, scale float64, jobs int, verify bool) error {
	e, ok := harness.ByID(id)
	if !ok {
		return fmt.Errorf("cfd: unknown experiment %q", id)
	}
	r := harness.NewRunner(scale)
	r.Jobs = jobs
	r.Verify = verify
	return r.RunExperiment(e, w)
}
