package mem

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestReadWriteWidths(t *testing.T) {
	m := New()
	m.Write(100, 8, 0x1122334455667788)
	if got := m.Read(100, 8); got != 0x1122334455667788 {
		t.Fatalf("Read8 = %#x", got)
	}
	if got := m.Read(100, 4); got != 0x55667788 {
		t.Errorf("Read4 = %#x", got)
	}
	if got := m.Read(100, 2); got != 0x7788 {
		t.Errorf("Read2 = %#x", got)
	}
	if got := m.Read(100, 1); got != 0x88 {
		t.Errorf("Read1 = %#x", got)
	}
	if got := m.Read(104, 4); got != 0x11223344 {
		t.Errorf("Read4 high = %#x", got)
	}
}

func TestPageCrossing(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3)
	m.Write(addr, 8, 0xdeadbeefcafebabe)
	if got := m.Read(addr, 8); got != 0xdeadbeefcafebabe {
		t.Fatalf("page-crossing read = %#x", got)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New()
	if got := m.Read(1<<40, 8); got != 0 {
		t.Errorf("unwritten = %#x, want 0", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New()
	m.Write(8, 8, 42)
	c := m.Clone()
	c.Write(8, 8, 99)
	if m.Read(8, 8) != 42 {
		t.Error("Clone shares storage with original")
	}
	if !m.Equal(m.Clone()) {
		t.Error("clone not Equal to original")
	}
}

func TestEqualTreatsZeroPagesAsAbsent(t *testing.T) {
	a, b := New(), New()
	a.Write(0, 8, 0) // allocates an all-zero page
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("all-zero page must compare equal to absent page")
	}
	a.Write(0, 1, 1)
	if a.Equal(b) {
		t.Error("differing memories compare equal")
	}
}

func TestChecksumDetectsChanges(t *testing.T) {
	a := New()
	a.WriteUint64s(0x1000, []uint64{1, 2, 3})
	c1 := a.Checksum()
	a.Write(0x1000, 8, 9)
	if a.Checksum() == c1 {
		t.Error("checksum unchanged after write")
	}
}

func TestChecksumDeterministic(t *testing.T) {
	build := func(order []uint64) uint64 {
		m := New()
		for _, a := range order {
			m.Write(a*PageSize, 8, a+1)
		}
		return m.Checksum()
	}
	if build([]uint64{1, 5, 3}) != build([]uint64{3, 1, 5}) {
		t.Error("checksum depends on write order")
	}
}

func TestWriteUint64sReturnsEnd(t *testing.T) {
	m := New()
	end := m.WriteUint64s(64, []uint64{7, 8})
	if end != 80 {
		t.Errorf("end = %d, want 80", end)
	}
	if m.Read(72, 8) != 8 {
		t.Errorf("second value = %d", m.Read(72, 8))
	}
}

func TestReadWriteProperty(t *testing.T) {
	f := func(addr uint64, val uint64) bool {
		addr %= 1 << 30
		m := New()
		m.Write(addr, 8, val)
		return m.Read(addr, 8) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	m := New()
	src := []byte{1, 2, 3, 4, 5}
	m.StoreBytes(PageSize-2, src)
	dst := make([]byte, 5)
	m.LoadBytes(PageSize-2, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d = %d, want %d", i, dst[i], src[i])
		}
	}
}

// TestCloneCopyOnWriteModel checks copy-on-write memories against a
// deep-copy reference model: random reads, writes (page-crossing ones
// included), StoreBytes and LoadBytes interleaved on a source, its clones
// and clones of clones, with Equal and Checksum compared against the
// model's own equality.
func TestCloneCopyOnWriteModel(t *testing.T) {
	const span = 6 * PageSize // the model's address space
	rng := rand.New(rand.NewSource(1))
	type pair struct {
		m   *Memory
		ref []byte
	}
	mems := []pair{{New(), make([]byte, span)}}
	sizes := []int{1, 2, 4, 8}
	// addr picks an address with room for n bytes, biased towards page
	// boundaries so accesses cross them often.
	addr := func(n int) uint64 {
		if rng.Intn(3) == 0 {
			pn := 1 + rng.Intn(span/PageSize-1)
			a := pn*PageSize - rng.Intn(n+1)
			if a >= 0 && a+n <= span {
				return uint64(a)
			}
		}
		return uint64(rng.Intn(span - n + 1))
	}
	for step := 0; step < 20000; step++ {
		x := mems[rng.Intn(len(mems))]
		switch op := rng.Intn(10); {
		case op < 3:
			size := sizes[rng.Intn(len(sizes))]
			a := addr(size)
			var want uint64
			for i := size - 1; i >= 0; i-- {
				want = want<<8 | uint64(x.ref[int(a)+i])
			}
			if got := x.m.Read(a, size); got != want {
				t.Fatalf("step %d: Read(%#x, %d) = %#x, want %#x", step, a, size, got, want)
			}
		case op < 6:
			size := sizes[rng.Intn(len(sizes))]
			a, v := addr(size), rng.Uint64()
			x.m.Write(a, size, v)
			for i := 0; i < size; i++ {
				x.ref[int(a)+i] = byte(v >> (8 * i))
			}
		case op == 6:
			buf := make([]byte, rng.Intn(2*PageSize))
			rng.Read(buf)
			a := addr(len(buf))
			x.m.StoreBytes(a, buf)
			copy(x.ref[a:], buf)
		case op == 7:
			buf := make([]byte, rng.Intn(2*PageSize))
			a := addr(len(buf))
			x.m.LoadBytes(a, buf)
			if !bytes.Equal(buf, x.ref[int(a):int(a)+len(buf)]) {
				t.Fatalf("step %d: LoadBytes(%#x, %d) differs from the model", step, a, len(buf))
			}
		case op == 8:
			// Keep cloning all run long: past 12 memories a clone
			// replaces a random one.
			c := pair{x.m.Clone(), bytes.Clone(x.ref)}
			if len(mems) < 12 {
				mems = append(mems, c)
			} else {
				mems[rng.Intn(len(mems))] = c
			}
		default:
			y := mems[rng.Intn(len(mems))]
			want := bytes.Equal(x.ref, y.ref)
			if got := x.m.Equal(y.m); got != want {
				t.Fatalf("step %d: Equal = %v, model says %v", step, got, want)
			}
			if got := x.m.Checksum() == y.m.Checksum(); want && !got {
				t.Fatalf("step %d: equal memories have different checksums", step)
			}
		}
	}
	// Every memory's final contents match its model, page by page.
	for i, x := range mems {
		fresh := New()
		fresh.StoreBytes(0, x.ref)
		if !x.m.Equal(fresh) || x.m.Checksum() != fresh.Checksum() {
			t.Errorf("memory %d differs from its model at the end", i)
		}
	}
}

// TestCloneWriteRefreshesReadCache: a page read (and so cached) before a
// Clone and then written on either side must read back the new value on
// that side and the old value on the other.
func TestCloneWriteRefreshesReadCache(t *testing.T) {
	const a = 3*PageSize + 16
	m := New()
	m.Write(a, 8, 1)
	if m.Read(a, 8) != 1 {
		t.Fatal("setup read")
	}
	c := m.Clone()
	m.Write(a, 8, 2)
	if got := m.Read(a, 8); got != 2 {
		t.Errorf("source after its own write reads %d, want 2", got)
	}
	if got := c.Read(a, 8); got != 1 {
		t.Errorf("clone after source write reads %d, want 1", got)
	}
	c.Write(a, 8, 3)
	if got := c.Read(a, 8); got != 3 {
		t.Errorf("clone after its own write reads %d, want 3", got)
	}
	if got := m.Read(a, 8); got != 2 {
		t.Errorf("source after clone write reads %d, want 2", got)
	}

	// The same on the clone side first: the clone caches the shared page
	// by reading it, then writes it.
	m2 := New()
	m2.Write(a, 8, 4)
	c2 := m2.Clone()
	if c2.Read(a, 8) != 4 {
		t.Fatal("clone read")
	}
	c2.Write(a, 8, 5)
	if got := c2.Read(a, 8); got != 5 {
		t.Errorf("clone reads %d after writing 5", got)
	}
	if got := m2.Read(a, 8); got != 4 {
		t.Errorf("source reads %d after the clone wrote, want 4", got)
	}
}

// TestEqualChecksumOnSharedPages: memories that share pages compare and
// hash as their contents say, before and after a write unshares a page.
func TestEqualChecksumOnSharedPages(t *testing.T) {
	m := New()
	for pn := uint64(0); pn < 16; pn++ {
		m.Write(pn*PageSize, 8, pn+1)
	}
	c := m.Clone()
	if !m.Equal(c) || !c.Equal(m) || m.Checksum() != c.Checksum() {
		t.Fatal("a fresh clone differs from its source")
	}
	c.Write(5*PageSize+8, 1, 7)
	if m.Equal(c) || c.Equal(m) || m.Checksum() == c.Checksum() {
		t.Fatal("a written clone still matches its source")
	}
	c.Write(5*PageSize+8, 1, 0)
	if !m.Equal(c) || m.Checksum() != c.Checksum() {
		t.Fatal("restoring the byte left the clone different")
	}
	// A page allocated on one side only, all zero, is still absent-equal.
	c.Write(100*PageSize, 8, 0)
	if !m.Equal(c) || !c.Equal(m) || m.Checksum() != c.Checksum() {
		t.Fatal("an all-zero page made the memories differ")
	}
}

// TestConcurrentClones clones one master from 8 goroutines at once, each
// writing every page of its own clone; the master never changes. Run
// under -race it also pins that Clone only reads the memory it copies.
func TestConcurrentClones(t *testing.T) {
	const pages = 64
	master := New()
	for pn := uint64(0); pn < pages; pn++ {
		master.Write(pn*PageSize, 8, pn)
	}
	sum := master.Checksum()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				c := master.Clone()
				for pn := uint64(0); pn < pages; pn++ {
					a := pn * PageSize
					if got := c.Read(a, 8); got != pn {
						t.Errorf("goroutine %d: clone page %d reads %d", g, pn, got)
						return
					}
					c.Write(a, 8, g<<32|pn)
				}
				for pn := uint64(0); pn < pages; pn++ {
					if got := c.Read(pn*PageSize, 8); got != g<<32|pn {
						t.Errorf("goroutine %d: clone page %d reads %#x after write", g, pn, got)
						return
					}
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if master.Checksum() != sum {
		t.Fatal("clones wrote through to the master")
	}
}

// bigMemory returns a memory with 4 MiB of written pages.
func bigMemory() *Memory {
	m := New()
	buf := make([]byte, PageSize)
	for pn := uint64(0); pn < 1024; pn++ {
		buf[0] = byte(pn) | 1
		m.StoreBytes(pn*PageSize, buf)
	}
	return m
}

// TestCloneAllocCeiling pins what a copy costs: Clone of a 4 MiB memory and
// one write to the copy allocate the copy, its page map and one page, and
// Equal of two copies that share pages allocates nothing.
func TestCloneAllocCeiling(t *testing.T) {
	m := bigMemory()
	if n := testing.AllocsPerRun(20, func() {
		c := m.Clone()
		c.Write(512*PageSize, 8, 1)
	}); n > 16 {
		t.Errorf("Clone + one write = %.0f allocs, want <= 16", n)
	}
	a, b := m.Clone(), m.Clone()
	b.Write(7*PageSize, 8, 1)
	if n := testing.AllocsPerRun(20, func() { a.Equal(b) }); n != 0 {
		t.Errorf("Equal of page-sharing clones = %.0f allocs, want 0", n)
	}
}

var sinkMem *Memory

// BenchmarkCloneWrite is the per-spec copy of a workload's initial
// memory: clone 4 MiB and write one word.
func BenchmarkCloneWrite(b *testing.B) {
	m := bigMemory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		c.Write(512*PageSize, 8, uint64(i))
		sinkMem = c
	}
}

var sinkBool bool

// BenchmarkEqualShared is Verify's final-memory compare: two copies of a
// 4 MiB memory that share all but a few pages.
func BenchmarkEqualShared(b *testing.B) {
	m := bigMemory()
	x, y := m.Clone(), m.Clone()
	for pn := uint64(0); pn < 4; pn++ {
		x.Write(pn*PageSize, 8, 1)
		y.Write(pn*PageSize, 8, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = x.Equal(y)
	}
}
