// Package mem provides the sparse, paged data memory that backs both the
// functional emulator (architectural state) and the cycle-level pipeline
// (committed state updated at retirement).
package mem

import (
	"encoding/binary"
	"maps"
	"slices"
	"sync/atomic"
)

// PageSize is the granularity of backing allocation.
const PageSize = 4096

type page [PageSize]byte

// Memory is a sparse 64-bit byte-addressable memory. The zero value is not
// usable; call New. Unwritten bytes read as zero.
//
// Copies are copy-on-write: Clone shares every page with the original, and
// the first write to a shared page, on either side, copies that page
// first. Clone, Equal and Checksum only read the page map, so any number
// of goroutines may call them at once on a memory that nobody is writing.
// Loads and stores are single-goroutine: the engines own their memories
// for the length of a run, and loads update the internal last-page cache.
type Memory struct {
	pages map[uint64]pageRef

	// epoch is the ownership tag of the pages this memory may write in
	// place. Clone moves it to a fresh value, which revokes ownership of
	// every page shared so far; a write to a page whose tag differs
	// copies the page and tags the copy with the current epoch.
	epoch atomic.Uint64

	// Last-page cache: simulated accesses are heavily page-local, so one
	// remembered (page number, page) pair turns most lookups into a
	// compare. lastPage == nil means the cache is empty (never that the
	// page is absent). lastTag is the cached page's ownership tag: a
	// store may use the cached page only while lastTag is the current
	// epoch.
	lastPN   uint64
	lastPage *page
	lastTag  uint64
}

// pageRef is one page-map entry: the page and the epoch of the memory
// that allocated or copied it.
type pageRef struct {
	p   *page
	tag uint64
}

// epochs hands out ownership tags. Tags are unique across all memories,
// so a page is writable in place only by the memory that tagged it, and
// only until that memory is next cloned.
var epochs atomic.Uint64

// New returns an empty memory.
func New() *Memory {
	m := &Memory{pages: make(map[uint64]pageRef)}
	m.epoch.Store(epochs.Add(1))
	return m
}

// loadPage returns the page holding addr for reading, or nil when the page
// was never written.
func (m *Memory) loadPage(addr uint64) *page {
	pn := addr / PageSize
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	r, ok := m.pages[pn]
	if !ok {
		return nil
	}
	m.lastPN, m.lastPage, m.lastTag = pn, r.p, r.tag
	return r.p
}

// storePage returns the page holding addr for writing: allocated if
// absent, and copied first if it is shared with another memory.
func (m *Memory) storePage(addr uint64) *page {
	pn := addr / PageSize
	epoch := m.epoch.Load()
	if m.lastPage != nil && m.lastPN == pn && m.lastTag == epoch {
		return m.lastPage
	}
	r, ok := m.pages[pn]
	if !ok || r.tag != epoch {
		np := new(page)
		if ok {
			*np = *r.p
		}
		r = pageRef{p: np, tag: epoch}
		m.pages[pn] = r
	}
	m.lastPN, m.lastPage, m.lastTag = pn, r.p, r.tag
	return r.p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.loadPage(addr)
	if p == nil {
		return 0
	}
	return p[addr%PageSize]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.storePage(addr)[addr%PageSize] = b
}

// Read returns size bytes (1, 2, 4, or 8) at addr as a little-endian,
// zero-extended value. Accesses may cross page boundaries.
func (m *Memory) Read(addr uint64, size int) uint64 {
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		p := m.loadPage(addr)
		if p == nil {
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 1:
			return uint64(p[off])
		}
	}
	// Page-crossing (or unusual size): byte path.
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low size bytes (1, 2, 4, or 8) of val at addr,
// little-endian.
func (m *Memory) Write(addr uint64, size int, val uint64) {
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		p := m.storePage(addr)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:], val)
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(val))
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(val))
			return
		case 1:
			p[off] = byte(val)
			return
		}
	}
	for i := 0; i < size; i++ {
		m.StoreByte(addr+uint64(i), byte(val>>(8*i)))
	}
}

// LoadBytes copies len(dst) bytes starting at addr into dst.
func (m *Memory) LoadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr % PageSize
		n := PageSize - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if p := m.loadPage(addr); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += n
	}
}

// StoreBytes copies src into memory starting at addr.
func (m *Memory) StoreBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr % PageSize
		n := PageSize - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		copy(m.storePage(addr)[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// WriteUint64s stores a slice of 64-bit values contiguously at addr and
// returns the address one past the end.
func (m *Memory) WriteUint64s(addr uint64, vals []uint64) uint64 {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], v)
		m.StoreBytes(addr, buf[:])
		addr += 8
	}
	return addr
}

// Clone returns a copy of the memory that shares every page with m until
// one side writes it. It costs one page-map copy, whatever the memory's
// size. Clone does not write m's pages or caches, so concurrent Clones of
// a memory nobody is writing are safe.
func (m *Memory) Clone() *Memory {
	c := &Memory{pages: maps.Clone(m.pages)}
	c.epoch.Store(epochs.Add(1))
	m.epoch.Store(epochs.Add(1))
	return c
}

// Equal reports whether two memories hold identical contents (treating
// absent pages as zero-filled). Pages the two share are equal without a
// compare.
func (m *Memory) Equal(o *Memory) bool {
	check := func(a, b *Memory) bool {
		for pn, r := range a.pages {
			q, ok := b.pages[pn]
			switch {
			case !ok:
				if *r.p != (page{}) {
					return false
				}
			case r.p != q.p && *r.p != *q.p:
				return false
			}
		}
		return true
	}
	return check(m, o) && check(o, m)
}

// Checksum returns a deterministic FNV-1a hash over all nonzero pages,
// taken in ascending page-number order; useful for workload output
// verification.
func (m *Memory) Checksum() uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, pn := range pns {
		p := m.pages[pn].p
		if *p == (page{}) {
			continue
		}
		for i := 0; i < 8; i++ {
			h ^= pn >> (8 * i) & 0xff
			h *= prime
		}
		for _, b := range p {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}
