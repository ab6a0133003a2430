package harness

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cfd/internal/config"
	"cfd/internal/obs"
	"cfd/internal/obs/journal"
	"cfd/internal/workload"
)

func obsSpecs() []RunSpec {
	return []RunSpec{
		{Workload: "bzip2like", Variant: workload.Base, Config: config.SandyBridge(), SampleEvery: 256},
		{Workload: "bzip2like", Variant: workload.CFD, Config: config.SandyBridge(), SampleEvery: 256},
		{Workload: "soplexlike", Variant: workload.Base, Config: config.SandyBridge(), SampleEvery: 256},
	}
}

func TestRunnerSampledResult(t *testing.T) {
	r := NewRunner(0.02)
	rs := obsSpecs()[1] // CFD variant: all three queues in play
	res, err := r.Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeseries == nil || len(res.Timeseries.Samples) == 0 {
		t.Fatal("sampled run returned no time series")
	}
	if res.Timeseries.Every != rs.SampleEvery {
		t.Errorf("series interval %d, spec asked %d", res.Timeseries.Every, rs.SampleEvery)
	}
	if res.Occupancy == nil {
		t.Fatal("sampled run returned no occupancy histograms")
	}
	var sum uint64
	for _, c := range res.Occupancy.BQ.Counts {
		sum += c
	}
	if sum != res.Stats.Cycles {
		t.Errorf("BQ occupancy counts sum to %d, run took %d cycles", sum, res.Stats.Cycles)
	}
	if res.Occupancy.BQ.Max == 0 {
		t.Error("CFD run never occupied the BQ")
	}

	// The unsampled spec is a distinct cache key and carries no telemetry.
	plain := rs
	plain.SampleEvery = 0
	pres, err := r.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Timeseries != nil || pres.Occupancy != nil {
		t.Error("unsampled run carries telemetry sections")
	}
	if pres.Stats.Cycles != res.Stats.Cycles {
		t.Errorf("sampling changed the simulation: %d vs %d cycles", pres.Stats.Cycles, res.Stats.Cycles)
	}
	if m := r.Metrics(); m.Simulations != 2 {
		t.Errorf("expected 2 distinct simulations (sampled + unsampled), got %d", m.Simulations)
	}
}

// TestSampledSweepDeterministic: telemetry sections and the harness trace
// are byte-identical whatever Jobs is set to.
func TestSampledSweepDeterministic(t *testing.T) {
	encode := func(jobs int) ([]*Result, []byte) {
		r := NewRunner(0.02)
		r.Jobs = jobs
		if _, err := r.Sweep(context.Background(), obsSpecs()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Trace().Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return r.Results(), buf.Bytes()
	}
	res1, tr1 := encode(1)
	res8, tr8 := encode(8)
	if len(res1) != len(res8) {
		t.Fatalf("result counts differ: %d vs %d", len(res1), len(res8))
	}
	for i := range res1 {
		if !reflect.DeepEqual(res1[i].Timeseries, res8[i].Timeseries) {
			t.Errorf("result %d: time series differ between -jobs=1 and -jobs=8", i)
		}
		if !reflect.DeepEqual(res1[i].Occupancy, res8[i].Occupancy) {
			t.Errorf("result %d: occupancy differs between -jobs=1 and -jobs=8", i)
		}
	}
	if !bytes.Equal(tr1, tr8) {
		t.Error("harness Perfetto trace differs between -jobs=1 and -jobs=8")
	}
}

func TestHarnessTrace(t *testing.T) {
	r := NewRunner(0.02)
	specs := obsSpecs()
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	// Re-run one spec so its span shows a cache hit.
	if _, err := r.Run(specs[0]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Trace().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("harness trace does not validate: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"cfd experiment harness"`, `"sweep (virtual time)"`,
		`"bzip2like/base @ sandybridge-like"`, `"cacheHits": 1`, `"ipc"`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("trace missing %q in:\n%.2000s", want, out)
		}
	}
}

// progressSweep runs one sweep of specs on r with both listeners
// attached — a journal bus and OnProgress — and returns every journal
// event plus the OnProgress events in call order. The OnProgress
// callback takes no lock of its own, so under -race it also checks that
// the Runner serializes the calls.
func progressSweep(t *testing.T, ctx context.Context, r *Runner, specs []RunSpec) (journaled, progress []journal.Event, err error) {
	t.Helper()
	j := journal.New("test")
	j.Subscribe(func(ev journal.Event) { journaled = append(journaled, ev) })
	r.Journal = j
	r.OnProgress = func(ev ProgressEvent) { progress = append(progress, ev) }
	_, err = r.Sweep(ctx, specs)
	if cerr := j.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return journaled, progress, err
}

// outcome is what a listener learns from one spec_done event.
type outcome struct {
	key      string
	cacheHit bool
	status   string
}

func outcomes(evs []journal.Event) []outcome {
	var out []outcome
	for _, ev := range evs {
		if ev.Type == journal.SpecDone {
			out = append(out, outcome{ev.Key, ev.CacheHit, ev.Status})
		}
	}
	return out
}

// progressSpecs is a sweep with duplicate specs, which complete as cache
// hits.
func progressSpecs() []RunSpec {
	base := obsSpecs()
	return append(append([]RunSpec{}, base...), base[0], base[1])
}

// TestSweepProgress pins that OnProgress receives exactly the journal's
// spec_done events, in the journal's order, and that every spec_done
// follows a spec_submit of the same key.
func TestSweepProgress(t *testing.T) {
	specs := progressSpecs()
	for _, jobs := range []int{1, 8} {
		r := NewRunner(0.02)
		r.Jobs = jobs
		journaled, progress, err := progressSweep(t, context.Background(), r, specs)
		if err != nil {
			t.Fatal(err)
		}
		done := outcomes(journaled)
		if len(done) != len(specs) {
			t.Fatalf("jobs=%d: %d spec_done events for %d specs", jobs, len(done), len(specs))
		}
		if got := outcomes(progress); !reflect.DeepEqual(got, done) {
			t.Errorf("jobs=%d: OnProgress saw\n%v\nthe journal's spec_done events are\n%v", jobs, got, done)
		}
		if len(progress) != len(done) {
			t.Errorf("jobs=%d: %d OnProgress calls for %d spec_done events", jobs, len(progress), len(done))
		}
		open := map[string]int{}
		for _, ev := range journaled {
			switch ev.Type {
			case journal.SpecSubmit:
				open[ev.Key]++
			case journal.SpecDone:
				if open[ev.Key] == 0 {
					t.Errorf("jobs=%d: spec_done for %s without a pending spec_submit", jobs, ev.Key)
				}
				open[ev.Key]--
				if ev.Status != "ok" || ev.Sweep != 1 {
					t.Errorf("jobs=%d: spec_done %+v, want status ok in sweep 1", jobs, ev)
				}
			}
		}
	}
}

// TestSweepProgressCompleteness pins the progress stream's accounting
// under parallelism: every submission (duplicates included) completes
// exactly once, the cache-hit events match the Runner's own metrics, and
// only the distinct specs simulate.
func TestSweepProgressCompleteness(t *testing.T) {
	specs := progressSpecs()
	for _, jobs := range []int{1, 8} {
		r := NewRunner(0.02)
		r.Jobs = jobs
		_, progress, err := progressSweep(t, context.Background(), r, specs)
		if err != nil {
			t.Fatal(err)
		}
		perKey := map[string]int{}
		cacheHits := 0
		for _, ev := range progress {
			perKey[ev.Key]++
			if ev.CacheHit {
				cacheHits++
			}
			if ev.StoreHit {
				t.Errorf("jobs=%d: store hit reported without a store", jobs)
			}
		}
		distinct := map[string]bool{}
		for _, rs := range specs {
			perKey[rs.Key()]--
			distinct[rs.Key()] = true
		}
		for k, n := range perKey {
			if n != 0 {
				t.Errorf("jobs=%d: spec %s observed %+d times vs submissions", jobs, k, n)
			}
		}
		m := r.Metrics()
		if uint64(cacheHits) != m.CacheHits {
			t.Errorf("jobs=%d: %d cache-hit progress events, runner counted %d", jobs, cacheHits, m.CacheHits)
		}
		if m.Simulations != uint64(len(distinct)) {
			t.Errorf("jobs=%d: %d simulations, want %d", jobs, m.Simulations, len(distinct))
		}
	}
}

// TestSweepProgressCancelled pins the stream when a KeepGoing sweep is
// cancelled mid-flight: the in-flight simulation still completes and is
// reported, a duplicate waiting on it is cancelled and reaches neither
// listener, and sweep_finish counts exactly the spec_done events.
func TestSweepProgressCancelled(t *testing.T) {
	b := obsSpecs()
	specs := append([]RunSpec{b[0], b[0], b[1], b[2]}, journalSpecs()...)
	for _, jobs := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		r := NewRunner(0.02)
		r.Jobs = jobs
		r.KeepGoing = true
		// The first simulation cancels the sweep. With two workers it
		// first waits for the second worker's lookup of the duplicate,
		// which then waits on the simulation in flight.
		var once sync.Once
		testOnSimulate = func(RunSpec) {
			once.Do(func() {
				for deadline := time.Now().Add(10 * time.Second); jobs > 1 && r.lookups.Load() < 2; {
					if time.Now().After(deadline) {
						t.Error("second worker never looked up the duplicate")
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
				cancel()
			})
		}
		journaled, progress, err := progressSweep(t, ctx, r, specs)
		testOnSimulate = nil
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: sweep returned %v, want context.Canceled", jobs, err)
		}
		done := outcomes(journaled)
		if len(progress) != len(done) {
			t.Errorf("jobs=%d: %d OnProgress calls, %d spec_done events", jobs, len(progress), len(done))
		}
		var finish *journal.Event
		for i, ev := range journaled {
			if ev.Type == journal.SweepFinish {
				finish = &journaled[i]
			}
			if ev.Error != "" && (strings.Contains(ev.Error, context.Canceled.Error()) ||
				strings.Contains(ev.Error, context.DeadlineExceeded.Error())) {
				t.Errorf("jobs=%d: %s event carries a context error: %s", jobs, ev.Type, ev.Error)
			}
		}
		if finish == nil {
			t.Fatalf("jobs=%d: no sweep_finish event", jobs)
		}
		if n := finish.Completed + finish.Failed; n != len(done) {
			t.Errorf("jobs=%d: sweep_finish counts %d, journal has %d spec_done events", jobs, n, len(done))
		}
		if len(done) != 1 || done[0].key != b[0].Key() || done[0].cacheHit {
			t.Errorf("jobs=%d: spec_done events %v, want only the simulation of %s", jobs, done, b[0].Key())
		}
		if want := uint64(jobs); r.Metrics().Lookups != want {
			t.Errorf("jobs=%d: %d lookups, want %d (the duplicate's cancelled wait)", jobs, r.Metrics().Lookups, want)
		}
	}
}

func TestRegisterMetrics(t *testing.T) {
	r := NewRunner(0.02)
	reg := obs.NewRegistry()
	r.RegisterMetrics(reg)
	if _, err := r.Run(obsSpecs()[0]); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["harness.lookups"] != 1 || snap["harness.simulations"] != 1 {
		t.Errorf("probe snapshot %v, want 1 lookup / 1 simulation", snap)
	}
	r.RegisterMetrics(nil) // no-op, not a panic
}
