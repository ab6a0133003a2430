package main

import (
	"slices"
	"testing"

	"cfd/internal/pipeline"
)

// TestBranchOrder pins the -branches listing order: most mispredicts
// first, ties by ascending PC, the same on every call whatever the map's
// iteration order.
func TestBranchOrder(t *testing.T) {
	per := map[uint64]*pipeline.BranchStat{
		40: {Mispredicts: 3},
		7:  {Mispredicts: 9},
		12: {Mispredicts: 3},
		3:  {Mispredicts: 0},
		25: {Mispredicts: 3},
		1:  {Mispredicts: 0},
	}
	want := []uint64{7, 12, 25, 40, 1, 3}
	for i := 0; i < 20; i++ {
		if got := branchOrder(per); !slices.Equal(got, want) {
			t.Fatalf("branchOrder = %v, want %v", got, want)
		}
	}
}
