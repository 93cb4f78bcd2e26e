package charon

import (
	"testing"

	"charonsim/internal/sim"
)

// benchRefs builds a Scan&Push reference list shaped like a recorded
// object scan: contiguous slots (so loads coalesce), mixed dependent
// work.
func benchRefs(n int) []RefOp {
	refs := make([]RefOp, n)
	for i := range refs {
		refs[i] = RefOp{
			Slot:        uint64(4096 + 8*i),
			Target:      uint64(1<<20 + 64*i),
			CheckHeader: true,
			Push:        i%3 == 0,
		}
	}
	return refs
}

// BenchmarkOffloadScanPush is the Scan&Push offload path (slot-load
// coalescing, dependent header checks, pushes);
// BenchmarkOffloadCopy covers the streaming units.
func BenchmarkOffloadScanPush(b *testing.B) {
	a := newAccel(false)
	refs := benchRefs(64)
	at := sim.Time(0)
	for i := 0; i < b.N; i++ {
		at = a.OffloadScanPush(at, 4096, refs, 1<<30)
	}
}

// TestOffloadAllocBudget pins the offload hot paths' allocation budget:
// zero per offload once the accelerator's reusable scratch (write-buffer
// entries, per-reference completion times) has warmed up.
func TestOffloadAllocBudget(t *testing.T) {
	a := newAccel(false)
	refs := benchRefs(64)
	at := sim.Time(0)
	i := 0
	copyAllocs := testing.AllocsPerRun(500, func() {
		at = a.OffloadCopy(at, uint64(i%1024)*4096, 1<<21, 4096)
		i++
	})
	if copyAllocs != 0 {
		t.Fatalf("OffloadCopy allocates %.2f allocs/op, budget 0", copyAllocs)
	}
	at = 0
	spAllocs := testing.AllocsPerRun(500, func() {
		at = a.OffloadScanPush(at, 4096, refs, 1<<30)
	})
	if spAllocs != 0 {
		t.Fatalf("OffloadScanPush allocates %.2f allocs/op, budget 0", spAllocs)
	}
}
