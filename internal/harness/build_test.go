package harness

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"cfd/internal/config"
	"cfd/internal/fault"
	"cfd/internal/isa"
	"cfd/internal/manifest"
	"cfd/internal/mem"
	"cfd/internal/prog"
	"cfd/internal/workload"
)

// registerCountingWorkload installs a transient workload whose Build counts
// its calls per (variant, n). Base and CFD build the same initial memory;
// CFDPlus builds a different one; DFD's builder panics. Every program
// loads a word, adds one and stores it back, so runs write a shared page.
func registerCountingWorkload(t *testing.T) (name string, calls func(workload.Variant, int64) int) {
	t.Helper()
	name = "countlike-test"
	var mu sync.Mutex
	counts := map[string]int{}
	if err := workload.Register(&workload.Spec{
		Name:     name,
		Variants: []workload.Variant{workload.Base, workload.CFD, workload.CFDPlus, workload.DFD},
		DefaultN: 1024, TestN: 256,
		Build: func(v workload.Variant, n int64) (*prog.Program, *mem.Memory, error) {
			mu.Lock()
			counts[fmt.Sprintf("%s/%d", v, n)]++
			mu.Unlock()
			if v == workload.DFD {
				panic("deliberately corrupt builder")
			}
			const addr = 0x2000
			m := mem.New()
			m.WriteUint64s(addr, []uint64{uint64(n), 7, 9})
			if v == workload.CFDPlus {
				m.Write(addr+8, 8, 8)
			}
			r1, r2 := isa.Reg(1), isa.Reg(2)
			p := prog.NewBuilder().
				Li(r1, addr).
				Load(isa.LD, r2, r1, 0).
				I(isa.ADDI, r2, r2, 1).
				Store(isa.SD, r2, r1, 0).
				Halt().MustBuild()
			return p, m, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Deregister(name) })
	return name, func(v workload.Variant, n int64) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[fmt.Sprintf("%s/%d", v, n)]
	}
}

// TestBuildMemoOncePerVariant: one Runner builds each (variant, n) of a
// workload once, however many configs and sweeps use it; variants with
// equal initial memories share one master, a variant whose memory differs
// keeps its own, and a panicking builder is one memoized RuntimePanic
// fault reported by every spec that uses it.
func TestBuildMemoOncePerVariant(t *testing.T) {
	name, calls := registerCountingWorkload(t)
	s, _ := workload.ByName(name)
	gshare, bimodal := config.SandyBridge(), config.SandyBridge()
	gshare.Name, gshare.Predictor = "gshare", config.PredGshare
	bimodal.Name, bimodal.Predictor = "bimodal", config.PredBimodal

	r := NewRunner(0.02)
	r.Jobs = 4
	r.Verify = true
	r.KeepGoing = true
	n := r.workloadN(s)
	for _, cfgs := range [][]config.Core{{config.SandyBridge(), gshare}, {bimodal}} {
		var specs []RunSpec
		for _, v := range s.Variants {
			for _, cfg := range cfgs {
				specs = append(specs, RunSpec{Workload: name, Variant: v, Config: cfg})
				specs = append(specs, RunSpec{Workload: name, Variant: v, Config: cfg, PerfectAll: true})
			}
		}
		if _, err := r.Sweep(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range s.Variants {
		if got := calls(v, n); got != 1 {
			t.Errorf("variant %s built %d times at n=%d, want 1", v, got, n)
		}
	}

	base, cfd, plus := r.build(s, workload.Base, n), r.build(s, workload.CFD, n), r.build(s, workload.CFDPlus, n)
	if base.master != cfd.master {
		t.Error("base and cfd build equal memories but hold two masters")
	}
	if plus.master == base.master {
		t.Error("cfd+ builds a different memory but shares base's master")
	}
	if got := len(r.masters[masterKey{spec: s, n: n}]); got != 2 {
		t.Errorf("Runner holds %d masters for the workload, want 2", got)
	}
	if got := base.master.Read(0x2000, 8); got != uint64(n) {
		t.Errorf("master word = %d after the runs, want %d: a run wrote through", got, n)
	}

	fails := r.Failures()
	if len(fails) != 6 {
		t.Fatalf("Failures() = %d entries, want the 6 dfd specs: %v", len(fails), fails)
	}
	for _, fl := range fails {
		f, ok := fault.As(fl.Err)
		if fl.Spec.Variant != workload.DFD || !ok || f.Kind != fault.RuntimePanic {
			t.Errorf("failure %s/%s: %v, want a dfd runtime-panic", fl.Spec.Workload, fl.Spec.Variant, fl.Err)
		}
		want := fmt.Sprintf("harness: %s/%s on %s: fault[runtime-panic] harness: panic: deliberately corrupt builder (pc 0, cycle 0, retired 0)",
			name, workload.DFD, fl.Spec.Config.Name)
		if got := fl.Err.Error(); got != want {
			t.Errorf("failure message %q, want %q", got, want)
		}
	}
}

// TestBuildMemoMatchesFreshBuild sweeps the grid manifest with Verify on
// and then checks that every memoized program and master still matches a
// fresh build, instruction for instruction and by Checksum: no engine
// wrote through a shared program or master page. Under the race detector
// the sweep takes every eighth spec, which still covers every workload,
// variant and perfect-prediction mode.
func TestBuildMemoMatchesFreshBuild(t *testing.T) {
	m, err := manifest.Load("../../examples/manifest/grid.json")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := SpecsFromManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		var some []RunSpec
		for i := 0; i < len(specs); i += 8 {
			some = append(some, specs[i])
		}
		specs = some
	}
	r := NewRunner(256.0 / 200_000)
	r.Jobs = 2
	r.Verify = true
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if len(r.builds) == 0 {
		t.Fatal("the sweep memoized no builds")
	}
	for k, b := range r.builds {
		p, fresh, err := k.spec.Build(k.variant, k.n)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(b.prog.Insts, p.Insts) {
			t.Errorf("%s/%s: memoized program differs from a fresh build", k.spec.Name, k.variant)
		}
		if b.master.Checksum() != fresh.Checksum() || !b.master.Equal(fresh) {
			t.Errorf("%s/%s: master memory differs from a fresh build", k.spec.Name, k.variant)
		}
	}
}
