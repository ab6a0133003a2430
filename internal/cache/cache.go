// Package cache models the data-side memory hierarchy: L1/L2/L3
// set-associative write-back caches with LRU replacement, L1 miss status
// holding registers (MSHRs) with miss merging, a fixed-latency DRAM, and
// software prefetch — the timing substrate behind the paper's
// memory-dependent branch analysis (Figs 2a, 25) and DFD (§V).
//
// The hierarchy is timing-only: data always comes from the functional
// memory; Access returns when the data would be available and which level
// supplied it.
package cache

import (
	"errors"
	"fmt"
)

// ServiceLevel identifies the furthest memory hierarchy level that serviced
// an access (paper Fig 2a's L1/L2/L3/MEM breakdown).
type ServiceLevel uint8

// Service levels.
const (
	NoData ServiceLevel = iota // not memory-dependent
	L1
	L2
	L3
	MEM
)

// String returns the paper's label for the level.
func (l ServiceLevel) String() string {
	switch l {
	case NoData:
		return "NoData"
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case MEM:
		return "MEM"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Max returns the deeper of two service levels.
func Max(a, b ServiceLevel) ServiceLevel {
	if a > b {
		return a
	}
	return b
}

// LevelConfig sizes one cache level.
type LevelConfig struct {
	Name    string
	SizeKB  int
	Ways    int
	Latency uint64 // load-to-use latency in cycles when this level hits
}

// Config describes the whole hierarchy.
type Config struct {
	LineBytes  int
	L1, L2, L3 LevelConfig
	MemLatency uint64
	NumMSHRs   int
	// SampleMSHRs enables the per-cycle L1 MSHR occupancy histogram
	// (Fig 25a); leave off for speed when unused.
	SampleMSHRs bool
	// NextLinePrefetch enables a simple hardware next-line prefetcher:
	// every demand L1 miss also fetches the following line. The paper's
	// Sandy Bridge baseline has hardware prefetchers; the default model
	// omits them (software DFD then shoulders all prefetching), and this
	// switch quantifies the difference.
	NextLinePrefetch bool
}

// DefaultConfig mirrors the paper's Sandy Bridge-like baseline (Fig 17a).
func DefaultConfig() Config {
	return Config{
		LineBytes:  64,
		L1:         LevelConfig{Name: "L1", SizeKB: 32, Ways: 8, Latency: 4},
		L2:         LevelConfig{Name: "L2", SizeKB: 256, Ways: 8, Latency: 12},
		L3:         LevelConfig{Name: "L3", SizeKB: 2048, Ways: 16, Latency: 30},
		MemLatency: 200,
		NumMSHRs:   32,
	}
}

// Validate reports geometry and latencies the model cannot honour, naming
// the field. Set and line indices are masks, so the line size and each
// level's set count must be powers of two; a level models sets × ways
// lines, so those lines must fill its size exactly; a latency of zero
// would complete an access in the cycle that issued it.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("LineBytes is %d; must be a power of two", c.LineBytes)
	}
	if c.MemLatency < 1 {
		return errors.New("MemLatency is 0; must be at least 1")
	}
	if c.NumMSHRs < 1 {
		return fmt.Errorf("NumMSHRs is %d; must be at least 1", c.NumMSHRs)
	}
	for _, lv := range []struct {
		field string
		cfg   LevelConfig
	}{{"L1", c.L1}, {"L2", c.L2}, {"L3", c.L3}} {
		l := lv.cfg
		if l.Ways < 1 {
			return fmt.Errorf("%s.Ways is %d; must be at least 1", lv.field, l.Ways)
		}
		if l.Latency < 1 {
			return fmt.Errorf("%s.Latency is 0; must be at least 1", lv.field)
		}
		if sets := l.sets(c.LineBytes); sets < 1 || sets&(sets-1) != 0 {
			return fmt.Errorf("%s.SizeKB is %d: %d ways of %d bytes give %d sets; the set count must be a power of two",
				lv.field, l.SizeKB, l.Ways, c.LineBytes, sets)
		}
		if modeled := l.sets(c.LineBytes) * l.Ways * c.LineBytes; modeled != l.SizeKB*1024 {
			return fmt.Errorf("%s.SizeKB is %d: %d ways of %d bytes model only %d bytes; the size must be a whole number of sets",
				lv.field, l.SizeKB, l.Ways, c.LineBytes, modeled)
		}
	}
	return nil
}

// sets returns the number of sets the level's size divides into.
func (l LevelConfig) sets(lineBytes int) int { return l.SizeKB * 1024 / lineBytes / l.Ways }

// line is one cache way. A zero tag marks it invalid: lineTag sets the
// top bit of every real tag, which keeps a line at 16 bytes.
type line struct {
	tag uint64
	lru uint64
}

// lineTag returns the tag lineAddr is stored under: the full line address
// (its set-index bits are redundant but harmless) with the top bit set so
// that no tag is zero. A line address is a byte address over the line
// size, so its top bit is always clear and the tag keeps every bit.
func lineTag(lineAddr uint64) uint64 { return lineAddr | 1<<63 }

type level struct {
	cfg      LevelConfig
	lines    []line // set-major: set s is lines[s*ways : (s+1)*ways]
	ways     uint64
	setShift uint
	setMask  uint64
	accesses uint64
	misses   uint64
}

func newLevel(cfg LevelConfig, lineBytes int) *level {
	numSets := max(cfg.sets(lineBytes), 1)
	return &level{
		cfg:     cfg,
		lines:   make([]line, numSets*cfg.Ways),
		ways:    uint64(cfg.Ways),
		setMask: uint64(numSets - 1),
	}
}

// set returns the ways of the set lineAddr maps to.
func (l *level) set(lineAddr uint64) []line {
	i := (lineAddr & l.setMask) * l.ways
	return l.lines[i : i+l.ways : i+l.ways]
}

// lookup probes for lineAddr; on hit it refreshes LRU.
func (l *level) lookup(lineAddr, clock uint64) bool {
	l.accesses++
	set := l.set(lineAddr)
	tag := lineTag(lineAddr)
	for i := range set {
		if set[i].tag == tag {
			set[i].lru = clock
			return true
		}
	}
	l.misses++
	return false
}

// install fills lineAddr, evicting the LRU way.
func (l *level) install(lineAddr, clock uint64) {
	set := l.set(lineAddr)
	tag := lineTag(lineAddr)
	victim := 0
	for i := range set {
		if set[i].tag == tag {
			set[i].lru = clock
			return
		}
		if set[i].tag == 0 {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{tag: tag, lru: clock}
}

type mshr struct {
	valid    bool
	lineAddr uint64
	fillAt   uint64
	level    ServiceLevel
}

// Hierarchy is the full data memory hierarchy.
type Hierarchy struct {
	cfg        Config
	lineShift  uint
	l1, l2, l3 *level
	mshrs      []mshr

	// Stats.
	mshrMergeHits uint64
	mshrStalls    uint64   // accesses delayed because every MSHR was busy
	Hist          []uint64 // MSHR occupancy histogram, index = busy count
	prefetches    uint64
	hwPrefetches  uint64

	inPrefetch bool // reentrancy guard for the hardware prefetcher
}

// New builds a hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	h := &Hierarchy{
		cfg:       cfg,
		lineShift: shift,
		l1:        newLevel(cfg.L1, cfg.LineBytes),
		l2:        newLevel(cfg.L2, cfg.LineBytes),
		l3:        newLevel(cfg.L3, cfg.LineBytes),
		mshrs:     make([]mshr, cfg.NumMSHRs),
		Hist:      make([]uint64, cfg.NumMSHRs+1),
	}
	return h
}

// LineAddr returns the cache line number of addr.
func (h *Hierarchy) LineAddr(addr uint64) uint64 { return addr >> h.lineShift }

// Access performs a demand load or store at cycle now. It returns the cycle
// at which the data is available and the furthest level that serviced it.
func (h *Hierarchy) Access(addr uint64, now uint64) (uint64, ServiceLevel) {
	done, lvl := h.access(addr, now)
	if h.cfg.NextLinePrefetch && lvl > L1 && !h.inPrefetch {
		// Hardware next-line prefetch on a demand miss.
		h.inPrefetch = true
		h.hwPrefetches++
		h.access(addr+uint64(h.cfg.LineBytes), now)
		h.inPrefetch = false
	}
	return done, lvl
}

func (h *Hierarchy) access(addr uint64, now uint64) (uint64, ServiceLevel) {
	la := h.LineAddr(addr)
	// A line with an in-flight fill is not yet usable even though it has
	// been installed: merge into the outstanding MSHR first.
	for i := range h.mshrs {
		m := &h.mshrs[i]
		if m.valid && m.fillAt > now && m.lineAddr == la {
			h.mshrMergeHits++
			return m.fillAt, m.level
		}
	}
	if h.l1.lookup(la, now) {
		return now + h.cfg.L1.Latency, L1
	}
	// Allocate an MSHR: reuse a retired one, else wait for the earliest.
	alloc := now
	slot := -1
	var earliest uint64 = ^uint64(0)
	ei := 0
	for i := range h.mshrs {
		m := &h.mshrs[i]
		if !m.valid || m.fillAt <= now {
			slot = i
			break
		}
		if m.fillAt < earliest {
			earliest, ei = m.fillAt, i
		}
	}
	if slot < 0 {
		h.mshrStalls++
		slot = ei
		alloc = earliest
	}
	// Resolve from the next levels.
	var lat uint64
	var lvl ServiceLevel
	switch {
	case h.l2.lookup(la, now):
		lat, lvl = h.cfg.L2.Latency, L2
	case h.l3.lookup(la, now):
		lat, lvl = h.cfg.L3.Latency, L3
	default:
		lat, lvl = h.cfg.MemLatency, MEM
		h.l3.install(la, now)
	}
	h.l2.install(la, now)
	h.l1.install(la, now)
	fill := alloc + lat
	h.mshrs[slot] = mshr{valid: true, lineAddr: la, fillAt: fill, level: lvl}
	return fill, lvl
}

// Prefetch issues a software prefetch (PREF / DFD): same path as a load,
// but callers ignore the completion time.
func (h *Hierarchy) Prefetch(addr uint64, now uint64) {
	h.prefetches++
	h.Access(addr, now)
}

// Tick samples MSHR occupancy for the utilization histogram when enabled.
func (h *Hierarchy) Tick(now uint64) {
	if !h.cfg.SampleMSHRs {
		return
	}
	busy := 0
	for i := range h.mshrs {
		if h.mshrs[i].valid && h.mshrs[i].fillAt > now {
			busy++
		}
	}
	h.Hist[busy]++
}

// LevelStats reports accesses and misses for one level (1, 2, or 3).
func (h *Hierarchy) LevelStats(lvl ServiceLevel) (accesses, misses uint64) {
	switch lvl {
	case L1:
		return h.l1.accesses, h.l1.misses
	case L2:
		return h.l2.accesses, h.l2.misses
	case L3:
		return h.l3.accesses, h.l3.misses
	}
	return 0, 0
}

// MSHRStats reports merged misses and full-MSHR delays.
func (h *Hierarchy) MSHRStats() (merges, stalls uint64) {
	return h.mshrMergeHits, h.mshrStalls
}

// Prefetches reports the number of software prefetches issued.
func (h *Hierarchy) Prefetches() uint64 { return h.prefetches }

// HWPrefetches reports the number of hardware next-line prefetches issued.
func (h *Hierarchy) HWPrefetches() uint64 { return h.hwPrefetches }
