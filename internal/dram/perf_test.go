package dram

import (
	"testing"

	"charonsim/internal/memsys"
	"charonsim/internal/sim"
)

// BenchmarkDDR4AccessAt is the full per-request DDR4 path (mapping, row
// state machine, bus calendar).
func BenchmarkDDR4AccessAt(b *testing.B) {
	d := NewDDR4(nil)
	at := sim.Time(0)
	for i := 0; i < b.N; i++ {
		at = d.AccessAt(at, memsys.Read, uint64(i%4096)*64, 64)
	}
}

// TestDDR4AccessAllocBudget pins the request path's allocation budget:
// zero. Bank state is preallocated, the bus calendars are ring-backed,
// and SplitBursts' callback must not escape.
func TestDDR4AccessAllocBudget(t *testing.T) {
	d := NewDDR4(nil)
	at := sim.Time(0)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		at = d.AccessAt(at, memsys.Read, uint64(i%4096)*64, 64)
		i++
	})
	if allocs != 0 {
		t.Fatalf("DDR4.AccessAt allocates %.2f allocs/op, budget 0", allocs)
	}
}
