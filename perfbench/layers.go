package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cfd/internal/harness"
	"cfd/internal/pipeline"
	"cfd/internal/store"
)

// windows are the ROB sizes the workloads sweep; pipeline.run_s.rob<N> is
// reported for each, 0 where a workload has no spec at that size.
var windows = []int{168, 256, 512, 640}

// layerWork accumulates one traced pass's per-layer counts and busy times
// where the calls are made.
type layerWork struct {
	mu       sync.Mutex
	builds   map[string]bool // distinct workload|variant|n built
	buildN   int
	runs     int
	cycles   uint64
	retired  uint64
	fetched  uint64
	squashed uint64

	oracleRuns, verifyRuns, emuRetired, storeBytes atomic.Int64

	store                         store.Metrics
	journalEvents, journalDropped uint64
	journalBytes, exportBytes     int64
	exportRuns                    int
	runtime                       memStats
	// harness is the Runner's cache counters from the paired untraced
	// pass; the traced pass has no Runner.
	harness harness.Metrics
	// backlogWaits is the paired untraced pass's journalGate waits.
	backlogWaits int
}

func (lw *layerWork) noteBuild(key string) {
	lw.mu.Lock()
	lw.builds[key] = true
	lw.buildN++
	lw.mu.Unlock()
}

func (lw *layerWork) notePipeline(core *pipeline.Core) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.runs++
	if core != nil {
		lw.cycles += core.Stats.Cycles
		lw.retired += core.Stats.Retired
		lw.fetched += core.Stats.Fetched
		lw.squashed += core.Stats.SquashedUops
	}
}

// memStats is the slice of runtime.MemStats the runtime layer reports.
type memStats struct {
	gcCycles   uint32
	pauseNs    uint64
	allocBytes uint64
}

func readMemStats() memStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memStats{ms.NumGC, ms.PauseTotalNs, ms.TotalAlloc}
}

func (m memStats) sub(prev memStats) memStats {
	return memStats{m.gcCycles - prev.gcCycles, m.pauseNs - prev.pauseNs, m.allocBytes - prev.allocBytes}
}

// spanTimes is the trace's time split, each summed over the traced
// passes: busy time per span name, pipeline time per ROB size, and the
// harness's self time.
type spanTimes struct {
	busy        map[string]int64
	rob         map[int]int64
	harnessSelf int64
}

// analyzeSpans checks the trace's nesting and computes self times. A
// span's self time is its duration minus the union of the intervals its
// children cover. Every child must lie inside its parent, so no child's
// self time can exceed its parent span.
func analyzeSpans(spans []span) (spanTimes, error) {
	byID := make(map[int64]*span, len(spans))
	children := map[int64][]*span{}
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return spanTimes{}, fmt.Errorf("span %d (%s) has no recorded parent %d", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start || s.Start < p.Start || s.End > p.End {
			return spanTimes{}, fmt.Errorf("span %s [%d,%d] lies outside its parent %s [%d,%d]",
				s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		children[p.ID] = append(children[p.ID], s)
	}
	t := spanTimes{busy: map[string]int64{}, rob: map[int]int64{}}
	self := make(map[int64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		t.busy[s.Name] += s.dur()
		if s.ROB != 0 {
			t.rob[s.ROB] += s.dur()
		}
		self[s.ID] = s.dur() - covered(children[s.ID])
		if s.Name == "harness.pass" || s.Name == "harness.spec" {
			t.harnessSelf += self[s.ID]
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 && self[s.ID] > byID[s.Parent].dur() {
			return spanTimes{}, fmt.Errorf("span %s self time %d ns exceeds its parent %s (%d ns)",
				s.Name, self[s.ID], byID[s.Parent].Name, byID[s.Parent].dur())
		}
	}
	if t.harnessSelf < 0 {
		return spanTimes{}, fmt.Errorf("harness self time is negative: %d ns", t.harnessSelf)
	}
	return t, nil
}

// covered is the length of the union of the spans' intervals.
func covered(spans []*span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return total + cur[1] - cur[0]
}
