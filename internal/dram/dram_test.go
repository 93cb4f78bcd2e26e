package dram

import (
	"testing"

	"charonsim/internal/memsys"
	"charonsim/internal/sim"
)

func TestRowHitFasterThanMiss(t *testing.T) {
	c := NewController(DDR4Timing(), 8, nil, "")

	// First access to a closed bank: tRCD + tCAS + burst.
	d1 := c.AccessAt(0, memsys.Read, 0, 0, 64)
	want1 := DDR4Timing().TRCD + DDR4Timing().TCAS + DDR4Timing().BurstTime
	if d1 != want1 {
		t.Fatalf("closed-bank access done at %d, want %d", d1, want1)
	}

	// Re-run on fresh controllers to measure isolated latencies.
	ch := NewController(DDR4Timing(), 8, nil, "")
	ch.AccessAt(0, memsys.Read, 0, 0, 64)
	hitDone := ch.AccessAt(0, memsys.Read, 0, 0, 64) // same row: hit

	cm := NewController(DDR4Timing(), 8, nil, "")
	cm.AccessAt(0, memsys.Read, 0, 0, 64)
	missDone := cm.AccessAt(0, memsys.Read, 0, 5, 64) // different row: conflict

	if hitDone >= missDone {
		t.Fatalf("row hit (%d) not faster than row conflict (%d)", hitDone, missDone)
	}
}

func TestRowConflictRespectsTRAS(t *testing.T) {
	tm := DDR4Timing()
	c := NewController(tm, 8, nil, "")
	c.AccessAt(0, memsys.Read, 0, 0, 64)
	// Immediately conflict: precharge cannot begin before activate+tRAS.
	done := c.AccessAt(0, memsys.Read, 0, 1, 64)
	min := tm.TRAS + tm.TRP + tm.TRCD + tm.TCAS
	if done < min {
		t.Fatalf("conflict done at %d, violates tRAS+tRP+tRCD+tCAS = %d", done, min)
	}
}

func TestPostedWritesCostBusOnly(t *testing.T) {
	// Writes are absorbed by the write buffer: they complete in bus time
	// (plus drain overhead) without paying activate/CAS latency, and they
	// do not disturb the read stream's open rows.
	tm := DDR4Timing()
	c := NewController(tm, 8, nil, "")
	wDone := c.AccessAt(0, memsys.Write, 0, 0, 64)
	if wDone >= tm.TRCD+tm.TCAS {
		t.Fatalf("posted write paid full access latency: %v", wDone)
	}
	// A read to a different row of the same bank still sees a closed bank
	// (no write-opened row), i.e. writes left bank state untouched.
	rDone := c.AccessAt(0, memsys.Read, 0, 1, 64)
	want := wDone + tm.TRCD + tm.TCAS + tm.BurstTime // queued behind write bus slot at worst
	if rDone > want {
		t.Fatalf("read after posted write at %v, want <= %v", rDone, want)
	}
}

func TestWriteStreamBandwidthCap(t *testing.T) {
	// Posted writes stream at bus bandwidth divided by the drain overhead.
	tm := DDR4Timing()
	c := NewController(tm, 8, nil, "")
	const n = 1000
	var done sim.Time
	for i := 0; i < n; i++ {
		done = c.AccessAt(0, memsys.Write, i%8, uint64(i), 64)
	}
	gbs := float64(n*64) / done.Seconds() / 1e9
	if gbs > 17.5*4/5+0.5 || gbs < 12 {
		t.Fatalf("write streaming %.2f GB/s, want ~%.1f", gbs, 17.0*4/5)
	}
}

func TestBankParallelism(t *testing.T) {
	// Two accesses to different banks overlap their activates; the second
	// finishes much sooner than 2x the serial latency (bus serializes only
	// the burst).
	tm := DDR4Timing()
	c := NewController(tm, 8, nil, "")
	c.AccessAt(0, memsys.Read, 0, 0, 64)
	d2 := c.AccessAt(0, memsys.Read, 1, 0, 64)
	serial := 2 * (tm.TRCD + tm.TCAS + tm.BurstTime)
	if d2 >= serial {
		t.Fatalf("no bank parallelism: second done at %d, serial would be %d", d2, serial)
	}
	want := tm.TRCD + tm.TCAS + 2*tm.BurstTime // bus slot after the first
	if d2 != want {
		t.Fatalf("second access done at %d, want %d", d2, want)
	}
}

func TestBusSerializationCapsBandwidth(t *testing.T) {
	// Many row-hit accesses to the same bank stream at bus bandwidth:
	// n bursts take ~n*BurstTime.
	tm := DDR4Timing()
	c := NewController(tm, 8, nil, "")
	const n = 1000
	var done sim.Time
	for i := 0; i < n; i++ {
		done = c.AccessAt(0, memsys.Read, 0, 0, 64)
	}
	lower := sim.Time(n) * tm.BurstTime
	upper := lower + tm.TRCD + tm.TCAS + 10*tm.BurstTime
	if done < lower || done > upper {
		t.Fatalf("streaming time %d outside [%d, %d]", done, lower, upper)
	}
	// Effective bandwidth ≈ 17 GB/s.
	gbs := float64(n*64) / done.Seconds() / 1e9
	if gbs < 15 || gbs > 17.5 {
		t.Fatalf("streaming bandwidth %.2f GB/s, want ~17", gbs)
	}
}

func TestHMCVaultBandwidth(t *testing.T) {
	// One vault sustains ~10 GB/s on 256 B row-hit streaming.
	tm := HMCVaultTiming()
	c := NewController(tm, 8, nil, "")
	const n = 500
	var done sim.Time
	for i := 0; i < n; i++ {
		done = c.AccessAt(0, memsys.Read, 0, 0, 256)
	}
	gbs := float64(n*256) / done.Seconds() / 1e9
	if gbs < 9 || gbs > 10.5 {
		t.Fatalf("vault bandwidth %.2f GB/s, want ~10", gbs)
	}
}

func TestMultiBurstOccupiesProportionalBus(t *testing.T) {
	tm := DDR4Timing()
	c := NewController(tm, 8, nil, "")
	d64 := c.AccessAt(0, memsys.Read, 0, 0, 64)
	base := d64
	d256 := c.AccessAt(0, memsys.Read, 0, 0, 256) // 4 bursts
	if d256-base != 4*tm.BurstTime {
		t.Fatalf("256B access occupied %d, want %d", d256-base, 4*tm.BurstTime)
	}
}

func TestControllerStats(t *testing.T) {
	c := NewController(DDR4Timing(), 8, nil, "")
	c.AccessAt(0, memsys.Read, 0, 0, 64)
	c.AccessAt(0, memsys.Write, 1, 0, 128)
	if c.Stats.Reads != 1 || c.Stats.Writes != 1 || c.Stats.Bytes() != 192 {
		t.Fatalf("stats %+v", c.Stats)
	}
	if c.BusBusy() == 0 {
		t.Fatal("bus busy not accumulated")
	}
}

func TestDDR4SystemCompletion(t *testing.T) {
	d := NewDDR4(nil)
	doneAt := d.AccessAt(0, memsys.Read, 0, 64)
	if doneAt == 0 {
		t.Fatal("request never completed")
	}
	tm := DDR4Timing()
	if doneAt != tm.TRCD+tm.TCAS+tm.BurstTime {
		t.Fatalf("completion at %d, want %d", doneAt, tm.TRCD+tm.TCAS+tm.BurstTime)
	}
}

func TestDDR4SystemSplitsAcrossChannels(t *testing.T) {
	d := NewDDR4(nil)
	// A 128B request at address 0 spans lines 0 (ch0) and 64 (ch1).
	d.AccessAt(0, memsys.Read, 0, 128)
	if d.Channels()[0].Stats.Reads != 1 || d.Channels()[1].Stats.Reads != 1 {
		t.Fatalf("channel split wrong: %d/%d", d.Channels()[0].Stats.Reads, d.Channels()[1].Stats.Reads)
	}
	st := d.Stats()
	if st.Bytes() != 128 {
		t.Fatalf("total bytes %d", st.Bytes())
	}
}

func TestDDR4AggregateBandwidthCap(t *testing.T) {
	// Streaming sequential reads through the full system should approach
	// but not exceed 34 GB/s (Table 2).
	d := NewDDR4(nil)
	const lines = 4000
	var last sim.Time
	for i := 0; i < lines; i++ {
		d.AccessAt(0, memsys.Read, uint64(i)*64, 64)
	}
	for _, c := range d.Channels() {
		if c.BusBusy() > last {
			last = c.BusBusy()
		}
	}
	// Approximate: busiest channel's occupancy bounds the duration from
	// below; bandwidth computed against it can only overestimate, so the
	// cap check remains valid using total occupancy across channels.
	var occ sim.Time
	for _, c := range d.Channels() {
		occ += c.BusBusy()
	}
	gbs := float64(lines*64) / occ.Seconds() / 1e9 * float64(len(d.Channels())) / float64(len(d.Channels()))
	gbs = float64(lines*64) / (2 * last.Seconds()) / 1e9 * 2
	if gbs > 34.5 {
		t.Fatalf("bandwidth %.2f GB/s exceeds the 34 GB/s cap", gbs)
	}
	if gbs < 28 {
		t.Fatalf("sequential streaming only reached %.2f GB/s, want near 34", gbs)
	}
}

func BenchmarkControllerAccess(b *testing.B) {
	c := NewController(DDR4Timing(), 64, nil, "")
	for i := 0; i < b.N; i++ {
		c.AccessAt(0, memsys.Read, i%64, uint64(i%128), 64)
	}
}
