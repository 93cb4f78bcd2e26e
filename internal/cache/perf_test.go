package cache

import (
	"math/rand"
	"testing"
)

// This file pins the host hierarchy's hot-path performance contract: a
// replay-shaped benchmark over the scaled L1/L2/L3 the experiment
// platforms use, plus an exact allocation budget for Hierarchy.Access and
// its two halves.

var sinkLookup LookupResult

// hierarchyTrace is a fixed seeded block-access trace shaped like host
// replay: reuse of a working set that fits in L1, reuse of one that only
// the L3 holds, streaming through fresh blocks, and stores on all three
// so dirty victims cascade L1→L2→L3→memory.
func hierarchyTrace() (addrs []uint64, writes []bool) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	l1 := ScaledL1DConfig().SizeBytes / 64
	l3 := ScaledL3Config().SizeBytes / 64
	addrs, writes = make([]uint64, n), make([]bool, n)
	var stream uint64 = 1 << 30
	for i := range addrs {
		var blk uint64
		switch r := rng.Intn(10); {
		case r < 6: // L1-resident reuse
			blk = rng.Uint64() % (l1 / 2)
		case r < 8: // L2/L3 reuse
			blk = 1<<20 + rng.Uint64()%(l3/2)
		default: // streaming
			stream++
			blk = stream
		}
		addrs[i] = blk*64 + rng.Uint64()%64
		writes[i] = rng.Intn(4) == 0
	}
	return addrs, writes
}

func scaledHierarchy() *Hierarchy {
	return &Hierarchy{Levels: []*Cache{New(ScaledL1DConfig()), New(ScaledL2Config()), New(ScaledL3Config())}}
}

// BenchmarkHierarchyAccess is one Hierarchy.Access on the scaled host
// stack. The trace is replayed once before timing so the caches are warm
// and every op of the timed loop sees the same steady-state mix, whatever
// b.N is.
func BenchmarkHierarchyAccess(b *testing.B) {
	addrs, writes := hierarchyTrace()
	h := scaledHierarchy()
	for i := range addrs {
		h.Access(addrs[i], writes[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(addrs)
		sinkLookup = h.Access(addrs[j], writes[j])
	}
}

// TestHierarchyAccessAllocBudget: once the writeback scratch has grown,
// Hierarchy.Access must not allocate on any path — hit, miss, cascaded
// dirty victim or memory writeback.
func TestHierarchyAccessAllocBudget(t *testing.T) {
	addrs, writes := hierarchyTrace()
	h := scaledHierarchy()
	for i := range addrs {
		h.Access(addrs[i], writes[i])
	}
	if h.Levels[2].Stats.Writebacks == 0 {
		t.Fatal("trace produced no memory writebacks; the budget would not cover that path")
	}
	j := 0
	allocs := testing.AllocsPerRun(len(addrs), func() {
		sinkLookup = h.Access(addrs[j%len(addrs)], writes[j%len(addrs)])
		j++
	})
	if allocs != 0 {
		t.Fatalf("Hierarchy.Access allocates %.2f allocs/op, budget 0", allocs)
	}
	// The two halves, run apart as a host replay does, hold the same budget.
	var p Private
	for _, half := range []struct {
		name string
		fn   func()
	}{
		{"WalkPrivate", func() { p = h.WalkPrivate(addrs[j%len(addrs)], writes[j%len(addrs)]) }},
		{"WalkShared", func() { _, _, sinkLookup.Writebacks = h.WalkShared(addrs[j%len(addrs)], p); j++ }},
	} {
		if allocs := testing.AllocsPerRun(len(addrs), half.fn); allocs != 0 {
			t.Fatalf("Hierarchy.%s allocates %.2f allocs/op, budget 0", half.name, allocs)
		}
	}
}
