// Package journal is the sweep-scale structured event journal: a
// schema-versioned JSONL stream ("cfd-journal" v1) of typed events
// recording what a campaign did — sweep lifecycle, per-spec
// submit/start/done with result counters, store quarantines and retries,
// watchdog expiries, and host-resource samples.
//
// Design rules:
//
//   - Crash-safe. Events are written line-buffered through a dedicated
//     writer goroutine and flushed by event class: everything except
//     high-rate informational samples (host_sample, store_retry) is
//     flushed to the file as it is written, so a SIGKILLed sweep's
//     journal ends at a line boundary and replays to the work that
//     actually completed.
//   - Non-blocking for the hot path. Emit hands the event to a buffered
//     channel; the sweep's workers never wait on disk I/O. TryEmit (used
//     for droppable informational events) never blocks at all.
//   - Deterministic in content. Every field of every durable event
//     derives from the simulation (spec keys, cycles, IPC, fault kinds),
//     never from wall clock or scheduling. The wall-clock timestamp and
//     arrival sequence are confined to the informational `ts` and `seq`
//     fields, which SortedReplay strips — so the canonical replay of a
//     sweep is byte-identical for any -jobs setting.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cfd/internal/obs"
)

// Schema identifies the journal line family; Version its revision. The
// first line of every journal is a journal_open event carrying both.
const (
	Schema  = "cfd-journal"
	Version = 1
)

// Type enumerates the journal's event taxonomy.
type Type string

const (
	// JournalOpen is the header line: schema, version, and the producing
	// tool. Always the first event.
	JournalOpen Type = "journal_open"
	// JournalClose is the trailer line with the total event count. A
	// journal without one was truncated by a crash — still valid, still
	// replayable.
	JournalClose Type = "journal_close"

	// SweepStart opens one Sweep: total specs and the (informational)
	// worker count.
	SweepStart Type = "sweep_start"
	// SweepFinish closes one Sweep: terminal completed/failed counts and
	// how many completions were resume skips restored from the store.
	SweepFinish Type = "sweep_finish"

	// SpecSubmit records a sweep worker picking up one spec.
	SpecSubmit Type = "spec_submit"
	// SpecStart records a fresh simulation beginning (cache and store
	// misses only — hits skip straight to spec_done).
	SpecStart Type = "spec_start"
	// SpecDone is the terminal record for one spec: status, counters,
	// and how the result materialized (simulated, cache hit, store hit).
	SpecDone Type = "spec_done"

	// StoreQuarantine records the persistent store setting aside a
	// corrupt or mismatched entry.
	StoreQuarantine Type = "store_quarantine"
	// StoreRetry records one transient-I/O retry attempt inside the
	// store. Informational: wall-clock-dependent, droppable, excluded
	// from the canonical replay.
	StoreRetry Type = "store_retry"

	// WatchdogExpiry flags a spec whose run was stopped by its watchdog
	// (the paired spec_done carries the full fault record).
	WatchdogExpiry Type = "watchdog_expiry"

	// HostSample is one host-resource snapshot from the HostSampler.
	// Informational: wall-clock-driven, droppable, excluded from the
	// canonical replay.
	HostSample Type = "host_sample"
)

// Event is one journal line. It is the union of every event type's
// fields; unset fields are omitted from the JSON encoding, so each line
// carries only what its type defines (see the taxonomy table in
// DESIGN.md).
type Event struct {
	// Seq is the arrival sequence number (1-based) assigned by the
	// writer. Informational: stripped by SortedReplay.
	Seq uint64 `json:"seq,omitempty"`
	// TS is the wall-clock write time (RFC3339Nano, UTC). Informational:
	// stripped by SortedReplay.
	TS   string `json:"ts,omitempty"`
	Type Type   `json:"event"`

	// Header fields (journal_open).
	Schema  string `json:"schema,omitempty"`
	Version int    `json:"version,omitempty"`
	Tool    string `json:"tool,omitempty"`

	// Sweep scoping: the 1-based sweep sequence number within the
	// process. 0 on events outside any sweep.
	Sweep uint64 `json:"sweep,omitempty"`
	// Jobs is the sweep's worker count. Informational (an execution
	// setting, not simulation content): stripped by SortedReplay.
	Jobs  int `json:"jobs,omitempty"`
	Total int `json:"total,omitempty"`
	// Manifest is the content digest of the experiment manifest whose
	// expansion this sweep runs (sweep_start, -manifest runs only) —
	// the provenance link from journal to declaration.
	Manifest string `json:"manifest,omitempty"`

	// Sweep terminal counts (sweep_finish, journal_close).
	Completed int `json:"completed,omitempty"`
	Failed    int `json:"failed,omitempty"`
	// ResumeSkips counts completions restored from the persistent store
	// instead of simulated — the resumed fraction of the sweep.
	ResumeSkips int    `json:"resumeSkips,omitempty"`
	Events      uint64 `json:"events,omitempty"` // journal_close: lines written before it

	// Spec identity (spec_* and watchdog_expiry events).
	Key      string `json:"key,omitempty"`
	StoreKey string `json:"storeKey,omitempty"`
	Workload string `json:"workload,omitempty"`
	Variant  string `json:"variant,omitempty"`
	Config   string `json:"config,omitempty"`

	// Spec outcome (spec_done).
	Status   string  `json:"status,omitempty"` // "ok" or "fault"
	Cycles   uint64  `json:"cycles,omitempty"`
	Retired  uint64  `json:"retired,omitempty"`
	IPC      float64 `json:"ipc,omitempty"`
	CacheHit bool    `json:"cacheHit,omitempty"` // served by the in-memory singleflight cache
	StoreHit bool    `json:"storeHit,omitempty"` // restored from the persistent store
	Stored   bool    `json:"stored,omitempty"`   // persisted to the store by this completion
	Fault    string  `json:"fault,omitempty"`    // fault.Kind for typed faults
	Error    string  `json:"error,omitempty"`

	// Store diagnostics (store_quarantine).
	Entry  string `json:"entry,omitempty"` // entry file base name
	Reason string `json:"reason,omitempty"`

	// Host telemetry (host_sample).
	Host *obs.HostStats `json:"host,omitempty"`
}

// Journal is the event bus plus its optional file sink. Emit queues
// events to a dedicated writer goroutine; subscribers (e.g. the live
// /status tracker) observe every event in write order. A nil *Journal is
// a valid disabled journal: every method is an allocation-free no-op.
type Journal struct {
	ch   chan Event
	done chan struct{}

	// mu orders sends against Close (no send after close) and serializes
	// Subscribe. The writer never takes it: Emit holds mu while it waits
	// on a full bus, so a writer that needed mu to drain would deadlock.
	// It reads subscribers through subs, a copy-on-write snapshot.
	mu     sync.Mutex
	closed bool
	subs   atomic.Pointer[[]func(Event)]

	path string
	f    *os.File
	w    *bufio.Writer

	seq     uint64 // writer-goroutine-owned
	events  atomic.Uint64
	dropped atomic.Uint64
	werr    atomic.Value // first write error (error)
}

// busDepth bounds the event queue. Sweeps emit a handful of events per
// spec and specs take milliseconds to simulate, so the writer goroutine
// keeps far ahead of the producers; the depth only matters when the disk
// wedges, and then Emit degrades to waiting on the queue, never on I/O
// directly.
const busDepth = 1024

// New returns a bus-only journal (no file sink): events still flow to
// subscribers, which is what a live -listen server without -journal
// needs.
func New(tool string) *Journal {
	j := &Journal{ch: make(chan Event, busDepth), done: make(chan struct{})}
	go j.run()
	j.Emit(Event{Type: JournalOpen, Schema: Schema, Version: Version, Tool: tool})
	return j
}

// Open creates (truncating) the journal file at path and returns the
// journal writing to it, with the journal_open header already queued.
func Open(path, tool string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		ch:   make(chan Event, busDepth),
		done: make(chan struct{}),
		path: path,
		f:    f,
		w:    bufio.NewWriter(f),
	}
	go j.run()
	j.Emit(Event{Type: JournalOpen, Schema: Schema, Version: Version, Tool: tool})
	return j, nil
}

// Path returns the file sink's path ("" for a bus-only or nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Events returns the number of events written so far.
func (j *Journal) Events() uint64 {
	if j == nil {
		return 0
	}
	return j.events.Load()
}

// Dropped returns the number of droppable events TryEmit discarded
// because the bus was full.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	return j.dropped.Load()
}

// Err returns the first file-sink write error, if any. The journal keeps
// accepting events after a write error (subscribers still see them); the
// caller checks Err after Close.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	if v := j.werr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Subscribe registers fn to observe every subsequent event, called on
// the writer goroutine in write order. Keep fn fast: it shares the
// writer's throughput, though never the sweep's.
func (j *Journal) Subscribe(fn func(Event)) {
	if j == nil {
		return
	}
	j.mu.Lock()
	var subs []func(Event)
	if old := j.subs.Load(); old != nil {
		subs = append(subs, *old...)
	}
	subs = append(subs, fn)
	j.subs.Store(&subs)
	j.mu.Unlock()
}

// Emit queues one event. It blocks only when the bus is full (a wedged
// or absent consumer), never on disk I/O. No-op on a nil or closed
// journal.
func (j *Journal) Emit(ev Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.ch <- ev
	j.mu.Unlock()
}

// TryEmit queues one event if the bus has room and reports whether it
// was accepted. High-rate informational events (host samples, store
// retries) use it so they can never stall anything.
func (j *Journal) TryEmit(ev Event) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return false
	}
	select {
	case j.ch <- ev:
		return true
	default:
		j.dropped.Add(1)
		return false
	}
}

// Close drains the bus, writes the journal_close trailer, flushes, and
// closes the file sink. Idempotent; returns the first write error.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.done
		return j.Err()
	}
	j.closed = true
	j.ch <- Event{Type: JournalClose, Events: 0} // trailer; count filled by the writer
	close(j.ch)
	j.mu.Unlock()
	<-j.done
	return j.Err()
}

// run is the writer goroutine: assign sequence and timestamp, encode,
// write, flush by class, fan out to subscribers.
func (j *Journal) run() {
	for ev := range j.ch {
		j.seq++
		ev.Seq = j.seq
		ev.TS = time.Now().UTC().Format(time.RFC3339Nano)
		if ev.Type == JournalClose {
			ev.Events = j.seq - 1
		}
		j.write(ev)
		j.events.Store(j.seq)
		if subs := j.subs.Load(); subs != nil {
			for _, fn := range *subs {
				fn(ev)
			}
		}
	}
	if j.w != nil {
		if err := j.w.Flush(); err != nil {
			j.werr.CompareAndSwap(nil, err)
		}
	}
	if j.f != nil {
		if err := j.f.Close(); err != nil {
			j.werr.CompareAndSwap(nil, err)
		}
	}
	close(j.done)
}

// write encodes one line into the file sink (no-op for bus-only
// journals) and flushes it unless the event's class is droppable.
func (j *Journal) write(ev Event) {
	if j.w == nil {
		return
	}
	data, err := json.Marshal(&ev)
	if err != nil {
		j.werr.CompareAndSwap(nil, err)
		return
	}
	data = append(data, '\n')
	if _, err := j.w.Write(data); err != nil {
		j.werr.CompareAndSwap(nil, err)
		return
	}
	if flushClass(ev.Type) {
		if err := j.w.Flush(); err != nil {
			j.werr.CompareAndSwap(nil, err)
		}
	}
}

// flushClass reports whether an event class is flushed to disk as it is
// written. Durable events (lifecycle, spec terminals, quarantines) are;
// high-rate informational samples ride along on the next durable flush.
func flushClass(t Type) bool {
	switch t {
	case HostSample, StoreRetry:
		return false
	}
	return true
}

// Read parses a journal stream into its events, validating only JSON
// well-formedness per line (structural validation is Validate's job). A
// trailing partial line — the signature of a crashed writer — is
// ignored, like a torn store write.
func Read(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	var torn error // held back: only fatal if more lines follow it
	line := 0
	for sc.Scan() {
		line++
		if torn != nil {
			// The bad line was not the last — that is corruption, not a
			// crashed writer's torn tail.
			return nil, torn
		}
		data := sc.Bytes()
		if len(data) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(data, &ev); err != nil {
			torn = fmt.Errorf("journal: line %d: %w", line, err)
			continue
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return events, nil
}

// ReadFile reads and parses the journal at path.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Summary is what Validate learned about a journal.
type Summary struct {
	Events      int
	Sweeps      int
	Submitted   int
	Done        int
	OK          int
	Faults      int
	StoreHits   int
	CacheHits   int
	Quarantines int
	HostSamples int
	// Truncated reports a journal without a journal_close trailer — a
	// crashed or killed writer. Valid: the flushed prefix replays.
	Truncated bool
}

// Validate checks the journal's structural invariants: the header line,
// schema and version, known event types, strictly increasing sequence
// numbers, and per-type required fields. A missing journal_close trailer
// is not an error (crash truncation is an expected state); everything
// else is.
func Validate(events []Event) (*Summary, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("journal: empty")
	}
	head := events[0]
	if head.Type != JournalOpen {
		return nil, fmt.Errorf("journal: first event is %q, want %q", head.Type, JournalOpen)
	}
	if head.Schema != Schema {
		return nil, fmt.Errorf("journal: schema %q, want %q", head.Schema, Schema)
	}
	if head.Version != Version {
		return nil, fmt.Errorf("journal: version %d, want %d", head.Version, Version)
	}
	sum := &Summary{Events: len(events), Truncated: true}
	var prevSeq uint64
	for i, ev := range events {
		if ev.Seq <= prevSeq {
			return nil, fmt.Errorf("journal: event %d: seq %d not after %d", i, ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		switch ev.Type {
		case JournalOpen:
			if i != 0 {
				return nil, fmt.Errorf("journal: event %d: duplicate %s", i, JournalOpen)
			}
		case JournalClose:
			if i != len(events)-1 {
				return nil, fmt.Errorf("journal: event %d: %s before the end", i, JournalClose)
			}
			sum.Truncated = false
		case SweepStart:
			if ev.Sweep == 0 {
				return nil, fmt.Errorf("journal: event %d: %s without sweep id", i, ev.Type)
			}
			sum.Sweeps++
		case SweepFinish:
			if ev.Sweep == 0 {
				return nil, fmt.Errorf("journal: event %d: %s without sweep id", i, ev.Type)
			}
		case SpecSubmit:
			if ev.Key == "" {
				return nil, fmt.Errorf("journal: event %d: %s without key", i, ev.Type)
			}
			sum.Submitted++
		case SpecStart, WatchdogExpiry:
			if ev.Key == "" {
				return nil, fmt.Errorf("journal: event %d: %s without key", i, ev.Type)
			}
		case SpecDone:
			if ev.Key == "" {
				return nil, fmt.Errorf("journal: event %d: %s without key", i, ev.Type)
			}
			sum.Done++
			switch ev.Status {
			case "ok":
				sum.OK++
			case "fault":
				sum.Faults++
				if ev.Fault == "" && ev.Error == "" {
					return nil, fmt.Errorf("journal: event %d: fault status without fault or error", i)
				}
			default:
				return nil, fmt.Errorf("journal: event %d: %s status %q", i, ev.Type, ev.Status)
			}
			if ev.StoreHit {
				sum.StoreHits++
			}
			if ev.CacheHit {
				sum.CacheHits++
			}
		case StoreQuarantine:
			sum.Quarantines++
		case StoreRetry:
		case HostSample:
			if ev.Host == nil {
				return nil, fmt.Errorf("journal: event %d: %s without host stats", i, ev.Type)
			}
			sum.HostSamples++
		default:
			return nil, fmt.Errorf("journal: event %d: unknown type %q", i, ev.Type)
		}
	}
	return sum, nil
}

// CompletedKeys returns the sorted store keys (falling back to spec keys
// when no store was attached) of every spec_done event — the replayed
// set of completed work. onlyStored restricts it to completions the
// journal records as persisted, which is the invariant the resume CI
// gate checks against the store directory.
func CompletedKeys(events []Event, onlyStored bool) []string {
	seen := map[string]bool{}
	for _, ev := range events {
		if ev.Type != SpecDone {
			continue
		}
		if onlyStored && !ev.Stored {
			continue
		}
		k := ev.StoreKey
		if k == "" {
			k = ev.Key
		}
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// replayRank orders event classes within one sweep for the canonical
// replay: lifecycle opens, then per-spec classes in submit/start/done
// order, then watchdog and store diagnostics, then the sweep close.
func replayRank(t Type) int {
	switch t {
	case JournalOpen:
		return 0
	case SweepStart:
		return 1
	case SpecSubmit:
		return 2
	case SpecStart:
		return 3
	case SpecDone:
		return 4
	case WatchdogExpiry:
		return 5
	case StoreQuarantine:
		return 6
	case SweepFinish:
		return 7
	case JournalClose:
		return 9
	}
	return 8
}

// replayGroup splits the journal into header / body / trailer so the
// sort never interleaves the open and close lines with sweep bodies.
func replayGroup(t Type) int {
	switch t {
	case JournalOpen:
		return 0
	case JournalClose:
		return 2
	}
	return 1
}

// SortedReplay returns the canonical deterministic replay of a journal:
// informational events (host samples, store retries) are dropped;
// informational fields (seq, wall-clock ts, jobs, the trailer's event
// count) are stripped; and the durable events are ordered on the virtual
// spec-key timeline — by sweep, then event class, then spec key — so the
// replay of a given sweep is byte-identical whatever the worker count or
// completion interleaving was.
func SortedReplay(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for _, ev := range events {
		switch ev.Type {
		case HostSample, StoreRetry:
			continue
		}
		ev.Seq = 0
		ev.TS = ""
		ev.Jobs = 0
		ev.Events = 0
		out = append(out, ev)
	}
	sort.SliceStable(out, func(i, k int) bool {
		a, b := out[i], out[k]
		if ga, gb := replayGroup(a.Type), replayGroup(b.Type); ga != gb {
			return ga < gb
		}
		if a.Sweep != b.Sweep {
			return a.Sweep < b.Sweep
		}
		if ra, rb := replayRank(a.Type), replayRank(b.Type); ra != rb {
			return ra < rb
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		// Duplicate submissions of one spec within a sweep produce one
		// simulated and one cache-hit spec_done whose arrival order is a
		// race; order the fresh completion first so replays stay
		// byte-identical.
		if a.CacheHit != b.CacheHit {
			return !a.CacheHit
		}
		return a.Entry < b.Entry
	})
	return out
}

// Write encodes events as JSONL to w (the inverse of Read).
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		data, err := json.Marshal(&ev)
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if _, err := bw.Write(data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RewriteSorted replaces the journal file at path with its canonical
// sorted replay (the -journal-sorted mode): read, canonicalize, and
// atomically swap via a temp file in the same directory.
func RewriteSorted(path string) error {
	events, err := ReadFile(path)
	if err != nil {
		return err
	}
	if _, err := Validate(events); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".journal-sorted-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, SortedReplay(events)); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
