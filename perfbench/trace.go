package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cfd/internal/emu"
	"cfd/internal/energy"
	"cfd/internal/export"
	"cfd/internal/harness"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/pipeline"
	"cfd/internal/store"
	"cfd/internal/workload"
)

// span is one timed call across a layer boundary. Spans of one spec share
// Spec; times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Spec   int    `json:"spec,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// ROB is the window size of a pipeline span.
	ROB int `json:"rob,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent int64, spec int) span {
	return span{ID: t.nextID.Add(1), Parent: parent, Spec: spec, Name: name, Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(s span) {
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeSpans writes every recorded span as one JSON object a line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storedRun mirrors the harness's store payload, so the traced pass reads
// and writes the same entries a Runner does.
type storedRun struct {
	Spec   harness.RunSpec `json:"spec"`
	Result *harness.Result `json:"result,omitempty"`
}

// tracedPass drives the same specs as runPass through the same public
// entry points, but one call at a time, so each layer boundary gets a
// span: store Get/Put, workload build, the emulator's oracle and verify
// runs, the pipeline, journal close and the export. It mirrors the
// Runner's journal events and store payloads, so its work counts, sorted
// journal and results must equal the untraced pass's.
func tracedPass(ctx context.Context, su *setup, dir string, tr *tracer) (*pass, *layerWork, error) {
	if err := resetDir(dir); err != nil {
		return nil, nil, err
	}
	st, err := passStore(su, dir)
	if err != nil {
		return nil, nil, err
	}
	jpath := filepath.Join(dir, "journal.jsonl")
	j, err := journal.Open(jpath, tool)
	if err != nil {
		return nil, nil, err
	}

	debug.FreeOSMemory() // as in runPass
	runtime0 := readMemStats()
	t0, c0 := time.Now(), cpuTime()
	root := tr.start("harness.pass", 0, 0)
	lw := &layerWork{builds: map[string]bool{}}
	results := make([]*harness.Result, len(su.specs))
	var failed atomic.Int64
	var doc *export.Document
	epath := filepath.Join(dir, "export.json")
	// emit counts the pass's events for its journalGate, which after each
	// spec waits for the writer as the untraced pass's does.
	g := &journalGate{j: j}
	var gmu sync.Mutex
	var emitted atomic.Uint64
	emitted.Store(1) // journal_open
	emit := func(ev journal.Event) {
		emitted.Add(1)
		j.Emit(ev)
	}
	err = unlessStalled(func() error {
		emit(journal.Event{Type: journal.SweepStart, Sweep: 1, Total: len(su.specs), Jobs: jobs, Manifest: su.digest})
		var next, ok, storeHits atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(su.specs) || ctx.Err() != nil {
						return
					}
					res, hit, err := tracedSpec(su, st, emit, tr, lw, root.ID, i)
					gmu.Lock()
					g.wait(emitted.Load())
					gmu.Unlock()
					if hit {
						storeHits.Add(1)
					}
					if err != nil {
						failed.Add(1)
						fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", su.specs[i].Key(), err)
						continue
					}
					ok.Add(1)
					results[i] = res
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
		emit(journal.Event{Type: journal.SweepFinish, Sweep: 1, Total: len(su.specs),
			Completed: int(ok.Load()), Failed: int(failed.Load()), ResumeSkips: int(storeHits.Load())})

		sp := tr.start("journal.close", root.ID, 0)
		err := j.Close()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("journal close: %w", err)
		}
		sp = tr.start("export.build", root.ID, 0)
		doc = exportDoc(su, st, j, results)
		tr.end(sp)
		sp = tr.start("export.encode", root.ID, 0)
		err = writeExport(epath, doc)
		tr.end(sp)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	tr.end(root)
	p := &pass{wall: time.Since(t0), cpu: cpuTime() - c0, failed: int(failed.Load())}
	lw.runtime = readMemStats().sub(runtime0)
	if err := p.account(su, st, j, results); err != nil {
		return nil, nil, err
	}
	lw.store = st.Metrics()
	lw.journalEvents, lw.journalDropped = j.Events(), j.Dropped()
	lw.journalBytes = fileSize(jpath)
	lw.exportRuns = len(doc.Runs)
	lw.exportBytes = fileSize(epath)
	return p, lw, nil
}

// exportDoc assembles the results document the way export.Build does for a
// Runner: runs sorted by spec key, then the store and journal sections.
func exportDoc(su *setup, st *store.Store, j *journal.Journal, results []*harness.Result) *export.Document {
	type keyed struct {
		key string
		res *harness.Result
	}
	sorted := make([]keyed, 0, len(results))
	for _, res := range results {
		if res != nil {
			sorted = append(sorted, keyed{res.Spec.Key(), res})
		}
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].key < sorted[b].key })
	doc := &export.Document{
		Schema: export.Schema, Version: export.Version, Tool: tool,
		Scale: su.scale, Verify: true,
	}
	for _, k := range sorted {
		doc.Runs = append(doc.Runs, export.FromResult(k.res))
	}
	sec := &export.StoreSection{Dir: st.Dir(), Metrics: st.Metrics()}
	if n, err := st.Len(); err == nil {
		sec.Entries = n
	}
	doc.Store = sec
	doc.Journal = &export.JournalSection{Path: j.Path(), Schema: journal.Schema, Version: journal.Version, Events: j.Events()}
	return doc
}

// tracedSpec runs spec i the way Runner.Sweep does for a cache miss:
// journal the submission, try the store, else build, simulate, verify and
// persist, then journal the outcome. hit reports a store restore.
func tracedSpec(su *setup, st *store.Store, emit func(journal.Event), tr *tracer, lw *layerWork,
	parent int64, i int) (res *harness.Result, hit bool, err error) {
	rs := su.specs[i]
	id := i + 1
	root := tr.start("harness.spec", parent, id)
	defer tr.end(root)
	key := rs.Key()
	ev := journal.Event{Key: key, Sweep: 1, Workload: rs.Workload, Variant: string(rs.Variant), Config: rs.Config.Name}
	submit := ev
	submit.Type = journal.SpecSubmit
	emit(submit)

	s, ok := workload.ByName(rs.Workload)
	if !ok {
		return nil, false, fmt.Errorf("unknown workload %q", rs.Workload)
	}
	n := inputSize(s, su.scale)
	skey := fmt.Sprintf("%s|n=%d", key, n)

	sp := tr.start("store.get", root.ID, id)
	payload, hit, err := st.Get(skey)
	tr.end(sp)
	lw.storeBytes.Add(int64(len(payload)))
	var stored bool
	switch {
	case err == nil && hit:
		var sr storedRun
		if err := json.Unmarshal(payload, &sr); err != nil {
			return nil, true, fmt.Errorf("store payload: %w", err)
		}
		if sr.Spec != rs || sr.Result == nil {
			return nil, true, fmt.Errorf("store entry %s holds %s", skey, sr.Spec.Key())
		}
		res = sr.Result
	default:
		start := ev
		start.Type = journal.SpecStart
		emit(start)
		hit = false
		res, err = tracedSimulate(rs, s, n, tr, lw, root.ID, id)
		if err != nil {
			return nil, false, err
		}
		payload, err := json.Marshal(&storedRun{Spec: rs, Result: res})
		if err != nil {
			return nil, false, err
		}
		sp := tr.start("store.put", root.ID, id)
		stored = st.Put(skey, payload) == nil
		tr.end(sp)
		lw.storeBytes.Add(int64(len(payload)))
	}
	done := ev
	done.Type, done.StoreKey, done.Status = journal.SpecDone, skey, "ok"
	done.StoreHit, done.Stored = hit, stored
	done.Cycles, done.Retired = res.Stats.Cycles, res.Stats.Retired
	if res.Stats.Cycles > 0 {
		done.IPC = float64(res.Stats.Retired) / float64(res.Stats.Cycles)
	}
	emit(done)
	return res, hit, nil
}

// inputSize is the harness's input-size rule: DefaultN scaled, floored at
// 256 elements.
func inputSize(s *workload.Spec, scale float64) int64 {
	return max(int64(float64(s.DefaultN)*scale), 256)
}

// tracedSimulate is the harness's per-spec simulation, one layer call at a
// time: build the program, run the emulator oracle when the spec asks for
// perfect prediction, run the pipeline, and verify it against the
// emulator.
func tracedSimulate(rs harness.RunSpec, s *workload.Spec, n int64, tr *tracer, lw *layerWork,
	parent int64, id int) (*harness.Result, error) {
	sp := tr.start("build", parent, id)
	p, m, err := s.Build(rs.Variant, n)
	tr.end(sp)
	lw.noteBuild(fmt.Sprintf("%s|%s|%d", rs.Workload, rs.Variant, n))
	if err != nil {
		return nil, err
	}

	var opts []pipeline.Option
	if rs.PerfectAll || rs.PerfectCFD {
		perfect := map[uint64]bool{}
		if rs.PerfectCFD {
			for _, pc := range workload.SeparablePCs(p) {
				perfect[pc] = true
			}
		}
		oracle := pipeline.NewOracle()
		sp := tr.start("emu.oracle", parent, id)
		em := emu.New(p, m.Clone(), emu.WithTracer(emu.TracerFunc(func(ev emu.Event) {
			if ev.Inst.Op.IsCondBranch() && (rs.PerfectAll || perfect[ev.PC]) {
				oracle.Record(ev.PC, ev.Taken)
			}
		})))
		err := em.Run(500_000_000)
		tr.end(sp)
		lw.oracleRuns.Add(1)
		lw.emuRetired.Add(int64(em.Retired))
		if err != nil {
			return nil, fmt.Errorf("oracle pre-run: %w", err)
		}
		opts = append(opts, pipeline.WithOracle(oracle))
		if rs.PerfectAll {
			opts = append(opts, pipeline.WithPerfectBP())
		}
	}
	init := m.Clone()
	cfg := rs.Config
	cfg.Cache.SampleMSHRs = rs.SampleMSHR
	var obsv *obs.Observer
	if rs.SampleEvery > 0 {
		obsv = obs.NewObserver(rs.SampleEvery, cfg.BQSize, cfg.VQSize, cfg.TQSize)
		opts = append(opts, pipeline.WithObserver(obsv))
	}

	sp = tr.start("pipeline", parent, id)
	sp.ROB = cfg.ROBSize
	core, err := pipeline.New(cfg, p, m, opts...)
	if err == nil {
		err = core.Run(0)
		core.FinishObservation()
	}
	tr.end(sp)
	lw.notePipeline(core)
	if err != nil {
		return nil, err
	}

	sp = tr.start("emu.verify", parent, id)
	err = emu.VerifyArch(p, init, core.ArchRegs(), core.Mem(), core.Stats.Retired,
		emu.WithQueueSizes(cfg.BQSize, cfg.VQSize, cfg.TQSize))
	tr.end(sp)
	lw.verifyRuns.Add(1)
	lw.emuRetired.Add(int64(core.Stats.Retired))
	if err != nil {
		return nil, fmt.Errorf("differential verification: %w", err)
	}

	events := make(map[string]uint64)
	for e := 0; e < energy.NumEvents; e++ {
		if n := core.Meter.Counts[e]; n != 0 {
			events[energy.Event(e).String()] = n
		}
	}
	return &harness.Result{
		Spec:          rs,
		Stats:         core.Stats,
		EnergyTotal:   core.Meter.Total(),
		EnergyDynamic: core.Meter.Dynamic(),
		EnergyLeakage: core.Meter.Leakage(),
		EnergyQueue:   core.Meter.QueueEnergy(),
		EnergyEvents:  events,
		MSHRHist:      core.Hierarchy().Hist,
		Timeseries:    obsv.Timeseries(),
		Occupancy:     obsv.Occupancy(),
	}, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
