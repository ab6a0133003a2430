package iq

import (
	"slices"
	"testing"
)

const none = int32(-1)

func srcs(r ...int32) [Srcs]int32 {
	s := [Srcs]int32{none, none, none, none}
	copy(s[:], r)
	return s
}

// readyPositions lists the ready set over [from, to) via Next.
func readyPositions(q *Queue, from, to uint64) []uint64 {
	var out []uint64
	for pos := q.Next(from, to); pos < to; pos = q.Next(pos+1, to) {
		out = append(out, pos)
	}
	return out
}

func TestWakeCountsEverySource(t *testing.T) {
	q := New(8, 64)
	ready := make([]bool, 8)
	ready[0] = true
	q.Insert(10, srcs(0), ready)       // ready at once
	q.Insert(11, srcs(1, 2), ready)    // waits on two registers
	q.Insert(12, srcs(1, 1, 0), ready) // the same register twice
	if got := readyPositions(&q, 0, 64); !slices.Equal(got, []uint64{10}) {
		t.Fatalf("ready after insert = %v, want [10]", got)
	}
	if q.Pending(11) != 2 || q.Pending(12) != 2 {
		t.Fatalf("pending = %d, %d; want 2, 2", q.Pending(11), q.Pending(12))
	}
	q.Wake(1)
	if got := readyPositions(&q, 0, 64); !slices.Equal(got, []uint64{10, 12}) {
		t.Fatalf("ready after waking r1 = %v, want [10 12]", got)
	}
	q.Wake(2)
	if got := readyPositions(&q, 0, 64); !slices.Equal(got, []uint64{10, 11, 12}) {
		t.Fatalf("ready after waking r2 = %v, want [10 11 12]", got)
	}
	q.Issue(11)
	if q.Ready(11) || q.ReadyCount() != 2 {
		t.Fatalf("issued entry still ready (count %d)", q.ReadyCount())
	}
}

// TestSquashUnlinks: a squashed waiter leaves its lists, so the slot's
// reuse by a new entry waiting elsewhere cannot splice the lists together.
func TestSquashUnlinks(t *testing.T) {
	q := New(8, 64)
	ready := make([]bool, 8)
	q.Insert(1, srcs(3), ready)
	q.Insert(2, srcs(3, 4), ready) // middle of r3's list
	q.Insert(3, srcs(3), ready)
	q.Squash(2)
	q.Insert(2, srcs(5), ready) // reuse the slot on another register
	q.Wake(3)
	if got := readyPositions(&q, 0, 64); !slices.Equal(got, []uint64{1, 3}) {
		t.Fatalf("ready after waking r3 = %v, want [1 3]", got)
	}
	q.Wake(4) // the squashed entry's other list is empty now
	if q.Ready(2) || q.Pending(2) != 1 {
		t.Fatalf("reused slot woken by the squashed entry's register (pending %d)", q.Pending(2))
	}
	q.Wake(5)
	if !q.Ready(2) {
		t.Fatal("reused slot not woken by its own register")
	}
	q.Squash(2)
	if q.Ready(2) || q.ReadyCount() != 2 {
		t.Fatalf("squash left a ready bit (count %d)", q.ReadyCount())
	}
}

// TestNextWrapsOldestFirst: positions are monotonic and the ring is whole
// words, so a window straddling the ring's end scans oldest first.
func TestNextWrapsOldestFirst(t *testing.T) {
	q := New(4, 128)
	ready := []bool{true, true, true, true}
	for _, pos := range []uint64{1000, 1023, 1024, 1090} {
		q.Insert(pos, srcs(), ready)
	}
	if got := readyPositions(&q, 1000, 1128); !slices.Equal(got, []uint64{1000, 1023, 1024, 1090}) {
		t.Fatalf("window [1000,1128) = %v", got)
	}
	if got := readyPositions(&q, 1001, 1024); !slices.Equal(got, []uint64{1023}) {
		t.Fatalf("window [1001,1024) = %v", got)
	}
	if pos := q.Next(1091, 1128); pos < 1128 {
		t.Fatalf("Next past the last ready entry = %d, want >= 1128", pos)
	}
}

func TestNewRejectsPartialWords(t *testing.T) {
	for _, slots := range []uint64{32, 96} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(_, %d) accepted a ring that is not whole words", slots)
				}
			}()
			New(4, slots)
		}()
	}
}
