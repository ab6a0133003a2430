package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cfd/internal/export"
	"cfd/internal/harness"
	"cfd/internal/obs/journal"
	"cfd/internal/store"
)

const tool = "perfbench"

// counts are the deterministic work counts of one pass. They must repeat
// exactly across the passes of a run, between the untraced and the traced
// pass, and across runs of one binary on one seed.
type counts struct {
	Specs         int    `json:"specs"`
	Cycles        uint64 `json:"cycles"`
	Retired       uint64 `json:"retired"`
	Fetched       uint64 `json:"fetched"`
	StorePuts     uint64 `json:"storePuts"`
	StoreGets     uint64 `json:"storeGets"`
	StoreHits     uint64 `json:"storeHits"`
	JournalEvents uint64 `json:"journalEvents"`
}

// digest identifies one spec's result: the SHA-256 of its JSON encoding,
// which encoding/json makes canonical (map keys sorted, floats exact).
// Two results have equal digests exactly when they are deeply equal, so
// passes are compared without keeping earlier passes' results alive,
// which would slow every later pass's garbage collection.
type digest [sha256.Size]byte

// pass is the outcome of one campaign pass over a workload's specs.
type pass struct {
	wall, cpu time.Duration
	rssMiB    float64  // peak resident set sampled during the timed phase
	digests   []digest // aligned with setup.specs; zero where a spec failed
	failed    int
	counts    counts
	// fresh is the retired-instruction total of specs simulated in this
	// pass rather than restored from the store.
	fresh   uint64
	runner  harness.Metrics
	journal string // path of the pass's journal file
	// backlogWaits is how many spec completions waited for the journal's
	// writer (see journalGate).
	backlogWaits int
}

// passStore opens the pass's result store: the set-up's store for a
// resume workload, a fresh one under dir otherwise.
func passStore(su *setup, dir string) (*store.Store, error) {
	if su.storeDir != "" {
		return harness.OpenStore(su.storeDir)
	}
	return harness.OpenStore(filepath.Join(dir, "store"))
}

// runPass runs one untraced pass the way campaigns run: a fresh Runner
// with Verify on and a store and journal attached sweeps the specs, then
// the journal closes and the results export is built and encoded. Only
// that phase is timed. dir is emptied first and holds the pass's files.
func runPass(ctx context.Context, su *setup, dir string) (*pass, error) {
	if err := resetDir(dir); err != nil {
		return nil, err
	}
	st, err := passStore(su, dir)
	if err != nil {
		return nil, err
	}
	jpath := filepath.Join(dir, "journal.jsonl")
	j, err := journal.Open(jpath, tool)
	if err != nil {
		return nil, err
	}
	r := harness.NewRunner(su.scale)
	r.Jobs = jobs
	r.Verify = true
	r.KeepGoing = true
	r.Store = st
	r.Journal = j
	r.ManifestDigest = su.digest
	g := &journalGate{j: j}
	r.OnProgress = g.progress()

	// Start every pass from the same heap: collect the previous pass's
	// garbage and return freed memory to the OS, so neither its GC work
	// nor its resident set leaks into this pass's numbers.
	debug.FreeOSMemory()
	rss := startRSS()
	t0, c0 := time.Now(), cpuTime()
	var results []*harness.Result
	err = unlessStalled(func() error {
		var err error
		results, err = r.Sweep(ctx, su.specs)
		if cerr := j.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("journal close: %w", cerr)
		}
		if err == nil {
			err = writeExport(filepath.Join(dir, "export.json"), export.Build(tool, r, nil))
		}
		return err
	})
	p := &pass{wall: time.Since(t0), cpu: cpuTime() - c0, rssMiB: rss.stop()}
	if err != nil {
		return nil, err
	}
	p.backlogWaits = g.waits
	p.failed = len(r.Failures())
	p.runner = r.Metrics()
	return p, p.account(su, st, j, results)
}

// journalBacklog bounds the journal events a pass lets queue unwritten:
// half of the journal's 1024-event bus. Journal.Emit holds the journal's
// mutex while it blocks on a full bus, and the writer goroutine that
// would drain the bus takes the same mutex after every event, so a full
// bus deadlocks the pass. A resume pass emits events fast enough to fill
// the bus whenever the writer is kept off the CPU for a few tens of
// milliseconds. Each pass therefore applies the back-pressure a correct
// bounded bus would: after each spec it waits while more than
// journalBacklog events may be unwritten.
const journalBacklog = 512

// journalGate keeps one pass's journal backlog within journalBacklog. Its
// calls are serialized.
type journalGate struct {
	j *journal.Journal
	// waits is how many calls had to wait for the writer.
	waits int
}

// wait returns once at most journalBacklog of the first emitted events
// are unwritten.
func (g *journalGate) wait(emitted uint64) {
	if emitted <= g.j.Events()+journalBacklog {
		return
	}
	g.waits++
	for emitted > g.j.Events()+journalBacklog {
		time.Sleep(50 * time.Microsecond)
	}
}

// progress returns a Runner.OnProgress callback that gates a sweep on g.
// The Runner serializes the calls, one per completed spec. A spec emits
// spec_submit and spec_done, and spec_start when it simulates rather than
// hits the store or the Runner's cache; the journal opens with
// journal_open and sweep_start. The specs still in flight, at most jobs,
// have emitted at most three events each. So the bus never holds more
// than journalBacklog events, and two more for sweep_finish and the
// close trailer.
func (g *journalGate) progress() func(harness.ProgressEvent) {
	events := uint64(2)
	return func(ev harness.ProgressEvent) {
		events += 2
		if !ev.StoreHit && !ev.CacheHit {
			events++
		}
		g.wait(events + 3*jobs)
	}
}

// stallAfter bounds one pass. The longest pass (grid-cold) takes about
// 10 s on the reference host; a pass still running after stallAfter has
// stopped making progress.
const stallAfter = 60 * time.Second

// errStalled reports a pass that did not finish within stallAfter. The
// journalGate rules out the one known cause, a full journal bus, so a
// stall is a new defect.
var errStalled = errors.New("pass stalled: no result after 60s")

// unlessStalled runs f and returns its error, or errStalled when f has not
// returned within stallAfter. A stalled f is deadlocked inside the
// program and cannot be stopped, so its goroutine is abandoned; the run
// then reports the error and exits.
func unlessStalled(f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	t := time.NewTimer(stallAfter)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return errStalled
	}
}

// account fills in the pass's work counts and result digests.
func (p *pass) account(su *setup, st *store.Store, j *journal.Journal, results []*harness.Result) error {
	sm := st.Metrics()
	p.journal = j.Path()
	p.counts = counts{
		Specs:         len(su.specs),
		StorePuts:     sm.Puts,
		StoreGets:     sm.Hits + sm.Misses,
		StoreHits:     sm.Hits,
		JournalEvents: j.Events(),
	}
	p.digests = make([]digest, len(results))
	var buf bytes.Buffer
	for i, res := range results {
		if res == nil {
			continue
		}
		p.counts.Cycles += res.Stats.Cycles
		p.counts.Retired += res.Stats.Retired
		p.counts.Fetched += res.Stats.Fetched
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(res); err != nil {
			return fmt.Errorf("digest %s: %w", res.Spec.Key(), err)
		}
		p.digests[i] = sha256.Sum256(buf.Bytes())
	}
	if sm.Hits == 0 {
		p.fresh = p.counts.Retired
	}
	return nil
}

// mismatches counts the specs whose result differs from the reference
// run's; a spec that failed in either is counted by its own failure.
func mismatches(got, ref []digest) int {
	n := 0
	for i := range got {
		if got[i] != (digest{}) && ref[i] != (digest{}) && got[i] != ref[i] {
			n++
		}
	}
	return n
}

func writeExport(path string, doc *export.Document) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := export.Encode(w, doc); err != nil {
		f.Close()
		return fmt.Errorf("export encode: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("export write: %w", err)
	}
	return f.Close()
}

func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler polls the process's resident set until stopped and keeps the
// largest value seen.
type rssSampler struct {
	quit chan struct{}
	peak chan float64
}

// rssEvery is the resident-set polling interval: reading /proc/self/statm
// takes microseconds, so the poll costs well under 1% of one CPU.
const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		peak := residentMiB()
		for {
			select {
			case <-s.quit:
				s.peak <- max(peak, residentMiB())
				return
			case <-t.C:
				peak = max(peak, residentMiB())
			}
		}
	}()
	return s
}

// stop ends the polling and returns the peak in MiB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	return <-s.peak
}

// residentMiB is the process's current resident set in MiB, or 0 when
// /proc is unreadable.
func residentMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// checkLedger compares the pass's work counts with those an earlier run of
// this same binary recorded for this workload and seed, or records them.
// The binary's hash is part of the key, so a rebuilt program starts afresh.
func checkLedger(opt options, w *benchWorkload, c counts, rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(filepath.Dir(opt.work), "ledger")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%x.json", w.name, opt.seed, sum[:8]))
	if data, err := os.ReadFile(path); err == nil {
		var prev counts
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("ledger %s: %w", path, err)
		}
		if prev != c {
			rep.fail(1, "work counts %+v differ from an earlier run's %+v", c, prev)
		}
		return nil
	}
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
