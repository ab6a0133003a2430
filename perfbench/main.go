// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload of campaign passes through the
// harness (Runner sweeps with Verify on, a result store, an event journal
// and a JSON export) and prints every metric by name and unit, with a
// final JSON line for tools. See README.md for the workloads, the metric
// glossary and how to run it.
//
// Usage:
//
//	perfbench -workload paper-sweep -seed 1 -seconds 25 -trace 0
//
// -trace 0 reports the end-to-end metrics, measured with tracing off;
// -trace 1 runs untraced and traced passes in pairs and reports the
// per-layer metrics. The exit status is nonzero when any correctness
// check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// report is what one run prints.
type report struct {
	attempted, failed int
	metrics           []metric // the JSON line's metrics
	notes             []metric // printed by name and unit only
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) note(name, unit string, v float64) {
	r.notes = append(r.notes, metric{name, unit, v})
}

// fail records a failed check that failed n specs; a check on a whole
// pass or run counts as one.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

type options struct {
	root, work string
	seed       int64
	seconds    time.Duration
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: paper-sweep, grid-cold or grid-resume")
	seed := flag.Int64("seed", 1, "input seed: picks the input-size offset and the spec submission order")
	seconds := flag.Int("seconds", 25, "how long the timed phase repeats passes")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced passes")
	root := flag.String("root", ".", "root of the cfd checkout")
	work := flag.String("work", ".bench_build/perfbench-work", "directory for stores, journals, exports and spans")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload paper-sweep|grid-cold|grid-resume, -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	opt := options{root: *root, work: filepath.Join(*work, w.name), seed: *seed, seconds: time.Duration(*seconds) * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rep := &report{}
	var err error
	if *trace == 0 {
		err = measure(ctx, w, opt, rep)
	} else {
		err = traceRun(ctx, w, opt, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := os.RemoveAll(opt.work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.note("fail_frac", "ratio", float64(rep.failed)/float64(rep.attempted))
	for _, m := range append(rep.metrics, rep.notes...) {
		fmt.Printf("%-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// measure is the untraced run: set-up repeated setupReps times, then
// passes until the timed phase has lasted opt.seconds, each checked
// against the first (or, resuming, against the cold pass that filled the
// store).
func measure(ctx context.Context, w *benchWorkload, opt options, rep *report) error {
	su, setupS, err := setupRepeated(ctx, w, opt, rep)
	if err != nil {
		return err
	}
	ref := su.cold
	var refCounts *counts
	var walls, cpus, rss, mips []float64
	waits := 0
	// Three passes give a true median; the tail percentile needs ten
	// passes beyond it.
	minPasses := 3
	if w.resume {
		minPasses = 11
	}
	start := time.Now()
	for time.Since(start) < opt.seconds || len(walls) < minPasses {
		p, err := runPass(ctx, su, filepath.Join(opt.work, "pass"))
		if err != nil {
			return err
		}
		rep.check(w, su, p, ref, refCounts)
		if ref == nil {
			ref = p.digests
		}
		if refCounts == nil {
			refCounts = &p.counts
		}
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: wall %.3fs cpu %.3fs rss %.1fMiB\n",
			len(walls)+1, p.wall.Seconds(), p.cpu.Seconds(), p.rssMiB)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rss = append(rss, p.rssMiB)
		mips = append(mips, float64(p.fresh)/p.wall.Seconds()/1e6)
		waits += p.backlogWaits
	}
	if err := checkLedger(opt, w, *refCounts, rep); err != nil {
		return err
	}

	rep.add("wall_s", "s", median(walls))
	rep.add("cpu_s", "s", median(cpus))
	rep.add("peak_rss_mb", "MiB", median(rss))
	rep.add("setup_s", "s", median(setupS))
	rep.note("passes", "count", float64(len(walls)))
	rep.note("journal_backlog_waits", "count", float64(waits)/float64(len(walls)))
	if w.resume {
		rep.note("resume_p50_s", "s", median(walls))
		v, pct := tail(walls)
		rep.note("resume_tail_s", "s", v)
		rep.note("resume_tail_percentile", "%", pct)
	} else {
		rep.note("sim_mips", "Minstr/s", median(mips))
	}
	return nil
}

// setupRepeated runs set-up w.setupReps times and keeps the last; the
// cold passes of a resume workload's set-ups must agree with each other.
func setupRepeated(ctx context.Context, w *benchWorkload, opt options, rep *report) (*setup, []float64, error) {
	var su *setup
	var times []float64
	for i := 0; i < w.setupReps; i++ {
		t0 := time.Now()
		next, err := prepare(ctx, w, opt.root, opt.work, opt.seed, i)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if w.resume {
			rep.attempted += len(next.specs)
			if su != nil {
				if n := mismatches(next.cold, su.cold); n > 0 {
					rep.fail(n, "%d specs differ between two cold passes", n)
				}
				if err := os.RemoveAll(su.storeDir); err != nil {
					return nil, nil, err
				}
			}
		}
		su = next
	}
	return su, times, nil
}

// check applies the per-pass correctness checks: no spec failed, every
// result equals the reference run's, the work counts repeat, and the pass
// did the store work its workload implies.
func (r *report) check(w *benchWorkload, su *setup, p *pass, ref []digest, refCounts *counts) {
	r.attempted += len(su.specs)
	r.failed += p.failed
	if ref != nil {
		if n := mismatches(p.digests, ref); n > 0 {
			r.fail(n, "%d specs differ from the reference pass", n)
		}
	}
	if refCounts != nil && p.counts != *refCounts {
		r.fail(1, "work counts %+v differ from the first pass's %+v", p.counts, *refCounts)
	}
	want := counts{StoreGets: uint64(len(su.specs))}
	if w.resume {
		want.StoreHits = want.StoreGets
	} else {
		want.StorePuts = want.StoreGets
	}
	if p.counts.StoreGets != want.StoreGets || p.counts.StoreHits != want.StoreHits || p.counts.StorePuts != want.StorePuts {
		r.fail(1, "store work gets=%d hits=%d puts=%d, want gets=%d hits=%d puts=%d",
			p.counts.StoreGets, p.counts.StoreHits, p.counts.StorePuts, want.StoreGets, want.StoreHits, want.StorePuts)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, and that percentile.
func tail(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}
