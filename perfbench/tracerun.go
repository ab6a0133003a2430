package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"cfd/internal/obs/journal"
)

// traceRun is the traced run: set-up once, then pairs of an untraced and a
// traced pass until opt.seconds have passed and at least two pairs ran.
// The traced passes run under a CPU profile for the pipeline stage split.
// Both passes of a pair must do the same work, journal the same events and
// produce the same results.
func traceRun(ctx context.Context, w *benchWorkload, opt options, rep *report) error {
	su, err := prepare(ctx, w, opt.root, opt.work, opt.seed, 0)
	if err != nil {
		return err
	}
	if w.resume {
		rep.attempted += len(su.specs)
	}
	ref := su.cold
	var refCounts *counts
	var untraced, traced []float64
	var lws []*layerWork
	tr := newTracer()
	samples, unb := map[string]int64{}, map[string]int64{}
	start := time.Now()
	// At least two pairs, so that each pass runs first once.
	for pair := 0; time.Since(start) < opt.seconds || pair < 2; pair++ {
		var up, tp *pass
		var lw *layerWork
		// Alternate which pass of a pair runs first, so that neither one
		// inherits the warmer host state more often.
		for k := 0; k < 2; k++ {
			if (k == 0) == (pair%2 == 0) {
				up, err = runPass(ctx, su, filepath.Join(opt.work, "pass"))
			} else {
				tp, lw, err = profiledPass(ctx, su, filepath.Join(opt.work, "traced"), tr, samples, unb)
			}
			if err != nil {
				return err
			}
		}
		rep.check(w, su, up, ref, refCounts)
		if ref == nil {
			ref = up.digests
		}
		if refCounts == nil {
			refCounts = &up.counts
		}
		rep.check(w, su, tp, ref, refCounts)
		if err := sameJournal(up.journal, tp.journal); err != nil {
			rep.fail(1, "traced pass journal: %v", err)
		}
		lw.harness, lw.backlogWaits = up.runner, up.backlogWaits
		untraced = append(untraced, up.wall.Seconds())
		traced = append(traced, tp.wall.Seconds())
		lws = append(lws, lw)
	}
	if err := checkLedger(opt, w, *refCounts, rep); err != nil {
		return err
	}
	times, err := analyzeSpans(tr.spans)
	if err != nil {
		rep.fail(1, "trace: %v", err)
	}
	if err := tr.writeSpans(filepath.Join(filepath.Dir(opt.work), w.name+"-spans.jsonl")); err != nil {
		return err
	}
	for fn, c := range unb {
		fmt.Fprintf(os.Stderr, "perfbench: %d pipeline samples in %s, which the stage table does not name\n", c, fn)
	}
	layerMetrics(rep, su, lws, times, samples)
	rep.add("trace.overhead_frac", "ratio", median(traced)/median(untraced)-1)
	return nil
}

// profiledPass runs a traced pass under a CPU profile and adds the
// profile's pipeline samples to the stage buckets.
func profiledPass(ctx context.Context, su *setup, dir string, tr *tracer, samples, unb map[string]int64) (*pass, *layerWork, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	p, lw, err := tracedPass(ctx, su, dir, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	return p, lw, stageSamples(prof.Bytes(), samples, unb)
}

// sameJournal compares two journal files' canonical sorted replays.
func sameJournal(a, b string) error {
	var bufs [2]bytes.Buffer
	for i, path := range []string{a, b} {
		events, err := journal.ReadFile(path)
		if err != nil {
			return err
		}
		if err := journal.Write(&bufs[i], journal.SortedReplay(events)); err != nil {
			return err
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		return fmt.Errorf("sorted replay differs from the untraced pass's")
	}
	return nil
}

// layerMetrics reports the per-layer metrics: counts from the first traced
// pass (the checks hold them equal across passes), times as the mean per
// traced pass.
func layerMetrics(rep *report, su *setup, lws []*layerWork, t spanTimes, samples map[string]int64) {
	lw := lws[0]
	n := float64(len(lws))
	sec := func(name string) float64 { return float64(t.busy[name]) / 1e9 / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var rt memStats
	for _, l := range lws {
		rt.gcCycles += l.runtime.gcCycles
		rt.pauseNs += l.runtime.pauseNs
		rt.allocBytes += l.runtime.allocBytes
	}

	runS := sec("pipeline")
	rep.add("pipeline.runs", "count", float64(lw.runs))
	rep.add("pipeline.run_s", "s", runS)
	for _, rob := range windows {
		rep.add(fmt.Sprintf("pipeline.run_s.rob%d", rob), "s", float64(t.rob[rob])/1e9/n)
	}
	rep.add("pipeline.cycles", "count", float64(lw.cycles))
	rep.add("pipeline.retired", "count", float64(lw.retired))
	rep.add("pipeline.fetched", "count", float64(lw.fetched))
	rep.add("pipeline.squashed", "count", float64(lw.squashed))
	rep.add("pipeline.ns_per_cycle", "ns", ratio(runS*1e9, float64(lw.cycles)))
	rep.add("pipeline.mips", "Minstr/s", ratio(float64(lw.retired)/1e6, runS))
	var total int64
	for _, c := range samples {
		total += c
	}
	for _, st := range stages {
		c := samples[st]
		if st == "other" {
			c += samples[unbucketed]
		}
		rep.add("pipeline.stage."+st+"_frac", "ratio", ratio(float64(c), float64(total)))
	}
	unb := ratio(float64(samples[unbucketed]), float64(total))
	rep.add("pipeline.stage.unbucketed_frac", "ratio", unb)
	if unb > maxUnbucketed {
		rep.fail(1, "%.1f%% of pipeline samples are in functions the stage table does not name (bound %.0f%%)",
			100*unb, 100*maxUnbucketed)
	}

	rep.add("build.calls", "count", float64(lw.buildN))
	rep.add("build.distinct", "count", float64(len(lw.builds)))
	rep.add("build.reuse_ratio", "ratio", ratio(float64(len(lw.builds)), float64(lw.buildN)))
	rep.add("build.s", "s", sec("build"))

	rep.add("emu.oracle_runs", "count", float64(lw.oracleRuns.Load()))
	rep.add("emu.oracle_s", "s", sec("emu.oracle"))
	rep.add("emu.verify_runs", "count", float64(lw.verifyRuns.Load()))
	rep.add("emu.verify_s", "s", sec("emu.verify"))
	rep.add("emu.retired", "count", float64(lw.emuRetired.Load()))

	gets := float64(lw.store.Hits + lw.store.Misses)
	rep.add("store.puts", "count", float64(lw.store.Puts))
	rep.add("store.put_s", "s", sec("store.put"))
	rep.add("store.gets", "count", gets)
	rep.add("store.get_s", "s", sec("store.get"))
	rep.add("store.hits", "count", float64(lw.store.Hits))
	rep.add("store.misses", "count", float64(lw.store.Misses))
	rep.add("store.hit_ratio", "ratio", ratio(float64(lw.store.Hits), gets))
	rep.add("store.quarantines", "count", float64(lw.store.Quarantines))
	rep.add("store.retries", "count", float64(lw.store.Retries))
	rep.add("store.bytes", "bytes", float64(lw.storeBytes.Load()))

	rep.add("journal.events", "count", float64(lw.journalEvents))
	rep.add("journal.dropped", "count", float64(lw.journalDropped))
	rep.add("journal.close_s", "s", sec("journal.close"))
	rep.add("journal.bytes", "bytes", float64(lw.journalBytes))
	var waits int
	for _, l := range lws {
		waits += l.backlogWaits
	}
	rep.add("journal.backlog_waits", "count", float64(waits)/n)

	rep.add("export.runs", "count", float64(lw.exportRuns))
	rep.add("export.build_s", "s", sec("export.build"))
	rep.add("export.encode_s", "s", sec("export.encode"))
	rep.add("export.bytes", "bytes", float64(lw.exportBytes))

	rep.add("manifest.specs", "count", float64(len(su.specs)))
	rep.add("manifest.expand_s", "s", su.expand.Seconds())

	rep.add("harness.lookups", "count", float64(lw.harness.Lookups))
	rep.add("harness.simulations", "count", float64(lw.harness.Simulations))
	rep.add("harness.cache_hits", "count", float64(lw.harness.CacheHits))
	rep.add("harness.self_s", "s", float64(t.harnessSelf)/1e9/n)

	rep.add("runtime.gc_cycles", "count", float64(rt.gcCycles)/n)
	rep.add("runtime.gc_pause_s", "s", float64(rt.pauseNs)/1e9/n)
	rep.add("runtime.alloc_mb", "MiB", float64(rt.allocBytes)/(1<<20)/n)
}
