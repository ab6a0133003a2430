package main

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"cfd/internal/config"
	"cfd/internal/harness"
	"cfd/internal/obs/journal"
	"cfd/internal/pipeline"
	"cfd/internal/workload"
)

func TestStageOf(t *testing.T) {
	core := pipelinePkg + "(*Core)."
	cases := []struct {
		stack     []string
		stage, fn string
	}{
		{[]string{"runtime.duffcopy", core + "fetch", core + "Cycle", core + "Run"}, "fetch", ""},
		{[]string{"cfd/internal/predictor.(*TAGE).Lookup", core + "predictCond", core + "fetch"}, "predictor", ""},
		{[]string{core + "issue.func1", core + "issue", core + "Cycle"}, "issue", ""},
		{[]string{core + "renamedHotLoop", core + "Cycle"}, unbucketed, core + "renamedHotLoop"},
		{[]string{"cfd/internal/emu.(*Machine).Step", "cfd/internal/emu.(*Machine).Run"}, "", ""},
	}
	for _, c := range cases {
		if st, fn := stageOf(c.stack); st != c.stage || fn != c.fn {
			t.Errorf("stageOf(%v) = %q, %q; want %q, %q", c.stack, st, fn, c.stage, c.fn)
		}
	}
}

// TestStageTableNamesEveryPipelineFunction keeps the bucket table in step
// with the pipeline package: a new or renamed function fails here before
// its samples go unbucketed.
func TestStageTableNamesEveryPipelineFunction(t *testing.T) {
	dir := filepath.Join("..", "internal", "pipeline")
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	// Functions that never run inside a simulation: options, accessors
	// for callers, dumps and trace export.
	outside := map[string]bool{
		"WithOracle": true, "WithPerfectBP": true, "WithObserver": true, "WithWatchdog": true,
		"WithDeadlockLimit": true, "WithoutIdleSkip": true, "WithTrace": true, "WithTraceWindow": true,
		"NewOracle": true, "(*Oracle).Record": true, "(*Oracle).Reset": true,
		"(*Stats).IPC": true, "(*Stats).MPKI": true, "(*Core).Observer": true, "(*Core).Mem": true,
		"(*Core).Hierarchy": true, "(*Core).Done": true, "(*Core).Dump": true, "(*Core).Trace": true,
		"(*Core).Pipeview": true, "truncate": true, "(*Core).PerfettoTrace": true, "(*Core).RegisterProbes": true,
		"(*retRing).snapshot": true, "(*Core).snapshot": true, "(*Core).queueFault": true,
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				name = "(*" + typ.(*ast.Ident).Name + ")." + name
			}
			if _, ok := pipelineStage[name]; !ok && !outside[name] {
				t.Errorf("%s: %s is missing from pipelineStage", filepath.Base(path), name)
			}
		}
	}
}

// TestStageSamplesFromProfile decodes a real CPU profile of a pipeline run.
func TestStageSamplesFromProfile(t *testing.T) {
	s, ok := workload.ByName("soplexlike")
	if !ok {
		t.Fatal("soplexlike is not registered")
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		p, m, err := s.Build(workload.Base, 2000)
		if err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
		core, err := pipeline.New(config.SandyBridge(), p, m)
		if err == nil {
			err = core.Run(0)
		}
		if err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	samples, unb := map[string]int64{}, map[string]int64{}
	if err := stageSamples(prof.Bytes(), samples, unb); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range samples {
		total += c
	}
	if total == 0 {
		t.Fatalf("no pipeline samples in %d profile bytes", prof.Len())
	}
	if len(unb) > 0 {
		t.Errorf("unbucketed pipeline functions: %v", unb)
	}
}

// TestTracedPassMatchesRunner pins the traced pass's fidelity: cold and
// resuming, it must produce the Runner's results, work counts and journal.
func TestTracedPassMatchesRunner(t *testing.T) {
	specs, _, err := paperSpecs("")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	su := &setup{scale: gridScale, specs: specs[:8]}
	for _, resume := range []bool{false, true} {
		if resume {
			su.storeDir = filepath.Join(dir, "filled")
			if _, err := runPass(context.Background(), su, filepath.Join(dir, "fill")); err != nil {
				t.Fatal(err)
			}
		}
		up, err := runPass(context.Background(), su, filepath.Join(dir, "pass"))
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		tp, lw, err := tracedPass(context.Background(), su, filepath.Join(dir, "traced"), tr)
		if err != nil {
			t.Fatal(err)
		}
		if up.failed+tp.failed != 0 || mismatches(tp.digests, up.digests) != 0 {
			t.Errorf("resume=%v: traced results differ from the Runner's", resume)
		}
		if tp.counts != up.counts {
			t.Errorf("resume=%v: traced counts %+v, Runner's %+v", resume, tp.counts, up.counts)
		}
		if err := sameJournal(up.journal, tp.journal); err != nil {
			t.Errorf("resume=%v: %v", resume, err)
		}
		if want := map[bool]int{false: 8, true: 0}[resume]; lw.runs != want || lw.buildN != want {
			t.Errorf("resume=%v: %d pipeline runs and %d builds, want %d", resume, lw.runs, lw.buildN, want)
		}
		if _, err := analyzeSpans(tr.spans); err != nil {
			t.Errorf("resume=%v: %v", resume, err)
		}
	}
}

func TestCovered(t *testing.T) {
	sp := func(a, b int64) *span { return &span{Start: a, End: b} }
	if got := covered([]*span{sp(0, 10), sp(5, 15), sp(20, 30), sp(22, 25)}); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}
}

func TestAnalyzeSpansRejectsEscapingChild(t *testing.T) {
	spans := []span{{ID: 1, Name: "harness.pass", Start: 0, End: 10}, {ID: 2, Parent: 1, Name: "build", Start: 5, End: 12}}
	if _, err := analyzeSpans(spans); err == nil {
		t.Error("a child ending after its parent was accepted")
	}
	spans[1].End = 8
	got, err := analyzeSpans(spans)
	if err != nil {
		t.Fatal(err)
	}
	if got.harnessSelf != 7 {
		t.Errorf("harness self = %d, want 7", got.harnessSelf)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(20 - i)
	}
	if v, pct := tail(xs); v != 10 || pct != 50 {
		t.Errorf("tail = %v at p%v, want 10 at p50", v, pct)
	}
}

// TestJournalGateKeepsBusFromFilling drives the journal the way a resume
// pass does at its worst: jobs workers emitting each spec's events in a
// tight loop, far faster than the writer can keep up, with simulated
// specs (three events) and store hits (two) mixed. Unthrottled, two such
// loops fill the bus and deadlock in Journal.Emit; through the gate every
// event must be written, and the gate must not wait for events that were
// never emitted.
func TestJournalGateKeepsBusFromFilling(t *testing.T) {
	j, err := journal.Open(filepath.Join(t.TempDir(), "journal.jsonl"), tool)
	if err != nil {
		t.Fatal(err)
	}
	const specs = 4000
	g := &journalGate{j: j}
	progress := g.progress()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		j.Emit(journal.Event{Type: journal.SweepStart, Sweep: 1, Total: specs, Jobs: jobs})
		var mu sync.Mutex
		next := 0
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= specs {
						return
					}
					hit := i%3 != 0
					ev := journal.Event{Sweep: 1, Key: strings.Repeat("k", 200)}
					for _, typ := range []journal.Type{journal.SpecSubmit, journal.SpecStart, journal.SpecDone} {
						if typ == journal.SpecStart && hit {
							continue
						}
						ev.Type = typ
						j.Emit(ev)
					}
					mu.Lock()
					progress(harness.ProgressEvent{StoreHit: hit})
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		j.Emit(journal.Event{Type: journal.SweepFinish, Sweep: 1, Total: specs, Completed: specs})
		if err := j.Close(); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("the journal or the gate deadlocked")
	}
	simulated := uint64((specs + 2) / 3)
	if got, want := j.Events(), 2+2*uint64(specs)+simulated+2; got != want {
		t.Errorf("journal wrote %d events, want %d", got, want)
	}
}
