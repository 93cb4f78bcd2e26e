package hmc

import (
	"testing"

	"charonsim/internal/memsys"
	"charonsim/internal/sim"
)

// BenchmarkHostAccess is the host-side HMC path (SerDes link with CRC
// accounting, cube routing, vault timing). The near-memory path has
// BenchmarkNearAccess.
func BenchmarkHostAccess(b *testing.B) {
	s := NewSystem(testCubeShift, Star, nil)
	at := sim.Time(0)
	for i := 0; i < b.N; i++ {
		at = s.HostAccessAt(at, memsys.Read, uint64(i%4096)*64, 64)
	}
}

// TestHMCAccessAllocBudget pins the request paths' allocation budget:
// zero for both the host path and the near-memory (Charon-issued) path.
func TestHMCAccessAllocBudget(t *testing.T) {
	s := NewSystem(testCubeShift, Star, nil)
	at := sim.Time(0)
	i := 0
	host := testing.AllocsPerRun(2000, func() {
		at = s.HostAccessAt(at, memsys.Read, uint64(i%4096)*64, 64)
		i++
	})
	if host != 0 {
		t.Fatalf("HostAccessAt allocates %.2f allocs/op, budget 0", host)
	}
	at = 0
	near := testing.AllocsPerRun(2000, func() {
		at = s.NearAccessAt(at, i%4, memsys.Read, uint64(i%4096)*256, 256)
		i++
	})
	if near != 0 {
		t.Fatalf("NearAccessAt allocates %.2f allocs/op, budget 0", near)
	}
}
