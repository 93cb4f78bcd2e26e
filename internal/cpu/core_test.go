package cpu

import (
	"testing"

	"charonsim/internal/cache"
	"charonsim/internal/dram"
	"charonsim/internal/sim"
)

func newTestCore() (*Core, *dram.DDR4) {
	mem := dram.NewDDR4(nil)
	hier := cache.NewHostHierarchy()
	return NewCore(DefaultConfig(), hier, mem), mem
}

func TestComputeOpsIssueBandwidth(t *testing.T) {
	c, _ := newTestCore()
	// 100 single-instruction compute ops at 4-wide issue = 25+ cycles... but
	// each op takes at least ceil(1/4)=1 cycle in this model.
	ops := make([]Op, 100)
	for i := range ops {
		ops[i] = Op{Kind: OpCompute, Dep: NoDep}
	}
	finish := c.ExecOps(0, ops)
	cfg := DefaultConfig()
	if finish != 100*cfg.ClockPeriod {
		t.Fatalf("100 compute ops finished at %v, want %v", finish, 100*cfg.ClockPeriod)
	}
	// Work batching: one op with Work=100 costs 25 cycles.
	c2, _ := newTestCore()
	f2 := c2.ExecOps(0, []Op{{Kind: OpCompute, Dep: NoDep, Work: 100}})
	if f2 != 25*cfg.ClockPeriod {
		t.Fatalf("batched compute finished at %v, want %v", f2, 25*cfg.ClockPeriod)
	}
}

func TestCacheHitFast(t *testing.T) {
	c, _ := newTestCore()
	f1 := c.ExecOps(0, []Op{{Kind: OpRead, Addr: 4096, Size: 8, Dep: NoDep}})
	miss := c.Stats.CacheMisses
	f := c.ExecOps(f1, []Op{{Kind: OpRead, Addr: 4096, Size: 8, Dep: NoDep}})
	if c.Stats.CacheMisses != miss {
		t.Fatal("second access missed cache")
	}
	if f-f1 > 10*DefaultConfig().ClockPeriod {
		t.Fatalf("L1 hit took too long: %v", f-f1)
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	// N independent loads to distinct lines should overlap up to the MSHR
	// limit: total time far below N * memory latency.
	c, _ := newTestCore()
	var ops []Op
	const n = 10
	for i := 0; i < n; i++ {
		ops = append(ops, Op{Kind: OpRead, Addr: uint64(i) * 4096, Size: 8, Dep: NoDep})
	}
	parallelFinish := c.ExecOps(0, ops)

	// Same loads, fully dependent: serialize at memory latency each.
	c2, _ := newTestCore()
	ops2 := make([]Op, n)
	for i := range ops2 {
		dep := int32(i - 1)
		if i == 0 {
			dep = NoDep
		}
		ops2[i] = Op{Kind: OpRead, Addr: uint64(i) * 4096, Size: 8, Dep: dep}
	}
	serialFinish := c2.ExecOps(0, ops2)

	if parallelFinish*3 > serialFinish {
		t.Fatalf("independent misses (%v) should be >3x faster than dependent chain (%v)", parallelFinish, serialFinish)
	}
}

func TestMSHRLimitCapsMLP(t *testing.T) {
	// With many independent misses, throughput is bounded by MSHRs: double
	// the misses ≈ double the time once MSHRs saturate (links are not the
	// bottleneck on DDR4 at 10 outstanding).
	run := func(n int) sim.Time {
		c, _ := newTestCore()
		var ops []Op
		for i := 0; i < n; i++ {
			ops = append(ops, Op{Kind: OpRead, Addr: uint64(i) * 4096, Size: 8, Dep: NoDep})
		}
		return c.ExecOps(0, ops)
	}
	t100, t200 := run(100), run(200)
	ratio := float64(t200) / float64(t100)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("MSHR-bound scaling ratio %.2f, want ~2", ratio)
	}
}

func TestWindowLimitsRunahead(t *testing.T) {
	// A long-latency load followed by WindowSize+ independent compute ops:
	// the window fills and the front-end stalls until the load retires.
	cfg := DefaultConfig()
	c, _ := newTestCore()
	ops := []Op{{Kind: OpRead, Addr: 1 << 20, Size: 8, Dep: NoDep}}
	for i := 0; i < cfg.WindowSize*2; i++ {
		ops = append(ops, Op{Kind: OpCompute, Dep: NoDep})
	}
	finish := c.ExecOps(0, ops)

	// Without the load, pure compute time:
	c2, _ := newTestCore()
	finishNoLoad := c2.ExecOps(0, ops[1:])

	if finish <= finishNoLoad {
		t.Fatal("window stall did not extend execution")
	}
	// The stall should reflect the memory latency, not just one cycle.
	if finish-finishNoLoad < 20*sim.Nanosecond {
		t.Fatalf("window stall only %v", finish-finishNoLoad)
	}
}

func TestInOrderRetirement(t *testing.T) {
	c, _ := newTestCore()
	// A slow load then a fast compute: the compute's retire time must not
	// precede the load's.
	f := c.ExecOps(0, []Op{
		{Kind: OpRead, Addr: 1 << 21, Size: 8, Dep: NoDep},
		{Kind: OpCompute, Dep: NoDep},
	})
	if f < 20*sim.Nanosecond {
		t.Fatalf("finish %v precedes memory latency", f)
	}
}

func TestMultiLineAccessSplits(t *testing.T) {
	c, _ := newTestCore()
	c.ExecOps(0, []Op{{Kind: OpRead, Addr: 0, Size: 256, Dep: NoDep}})
	if c.Stats.MemAccesses != 4 {
		t.Fatalf("256B access split into %d lines, want 4", c.Stats.MemAccesses)
	}
}

func TestStatsAccounting(t *testing.T) {
	c, _ := newTestCore()
	c.ExecOps(0, []Op{
		{Kind: OpRead, Addr: 0, Size: 8, Dep: NoDep, Work: 5},
		{Kind: OpCompute, Dep: NoDep, Work: 3},
		{Kind: OpWrite, Addr: 64, Size: 8, Dep: 0},
	})
	if c.Stats.Ops != 3 || c.Stats.MemOps != 2 {
		t.Fatalf("stats %+v", c.Stats)
	}
	if c.Stats.Instructions != 9 {
		t.Fatalf("instructions = %d, want 9", c.Stats.Instructions)
	}
	if c.Stats.Busy == 0 {
		t.Fatal("busy time not accumulated")
	}
}

func TestPointerChasingIPCIsLow(t *testing.T) {
	// The paper's observation: GC-like dependent pointer chasing yields
	// IPC < 0.5 on an OoO core. Build a long dependent chain of loads to
	// random-ish lines.
	c, _ := newTestCore()
	var ops []Op
	addr := uint64(0)
	for i := 0; i < 2000; i++ {
		dep := int32(i - 1)
		if i == 0 {
			dep = NoDep
		}
		// 3 instructions of overhead per load, like a traversal loop.
		ops = append(ops, Op{Kind: OpRead, Addr: addr, Size: 8, Dep: dep, Work: 3})
		addr = (addr*2862933555777941757 + 3037000493) % (64 << 20) &^ 7
	}
	c.ExecOps(0, ops)
	ipc := c.Stats.IPC(DefaultConfig().ClockPeriod)
	if ipc >= 0.5 {
		t.Fatalf("pointer-chasing IPC = %.3f, paper observes < 0.5", ipc)
	}
	if ipc <= 0.001 {
		t.Fatalf("IPC %.4f suspiciously low", ipc)
	}
}

func TestStreamingFasterThanChasing(t *testing.T) {
	mkStream := func() []Op {
		var ops []Op
		for i := 0; i < 1000; i++ {
			ops = append(ops, Op{Kind: OpRead, Addr: uint64(i) * 64, Size: 8, Dep: NoDep})
		}
		return ops
	}
	mkChase := func() []Op {
		var ops []Op
		for i := 0; i < 1000; i++ {
			dep := int32(i - 1)
			if i == 0 {
				dep = NoDep
			}
			ops = append(ops, Op{Kind: OpRead, Addr: uint64(i*7919%1000) * 4096, Size: 8, Dep: dep})
		}
		return ops
	}
	cs, _ := newTestCore()
	streamT := cs.ExecOps(0, mkStream())
	cc, _ := newTestCore()
	chaseT := cc.ExecOps(0, mkChase())
	if streamT*4 > chaseT {
		t.Fatalf("streaming (%v) should be >4x faster than chasing (%v)", streamT, chaseT)
	}
}

func TestFlushCaches(t *testing.T) {
	c, mem := newTestCore()
	for i := 0; i < 100; i++ {
		c.ExecOps(c.cursor, []Op{{Kind: OpWrite, Addr: uint64(i) * 64, Size: 8, Dep: NoDep}})
	}
	before := mem.Stats()
	drain := c.FlushCaches(c.cursor)
	after := mem.Stats()
	if after.WriteBytes <= before.WriteBytes {
		t.Fatal("flush produced no writeback traffic")
	}
	if drain <= c.cursor {
		t.Fatal("flush drain time not in the future")
	}
	// After flush, a re-read misses.
	missBefore := c.Stats.CacheMisses
	c.ExecOps(drain, []Op{{Kind: OpRead, Addr: 0, Size: 8, Dep: NoDep}})
	if c.Stats.CacheMisses == missBefore {
		t.Fatal("read after flush hit a stale line")
	}
}

func TestHostSharedL3(t *testing.T) {
	mem := dram.NewDDR4(nil)
	h := NewHost(8, DefaultConfig(), mem)
	if len(h.Cores) != 8 {
		t.Fatalf("cores = %d", len(h.Cores))
	}
	// Core 0 warms a line; core 1 should hit it in the shared L3.
	h.Cores[0].ExecOps(0, []Op{{Kind: OpRead, Addr: 1 << 16, Size: 8, Dep: NoDep}})
	h.Cores[1].ExecOps(0, []Op{{Kind: OpRead, Addr: 1 << 16, Size: 8, Dep: NoDep}})
	if h.Cores[1].Stats.CacheMisses != 0 {
		t.Fatal("core 1 missed a line core 0 brought into shared L3")
	}
	st := h.Stats()
	if st.MemOps != 2 {
		t.Fatalf("host stats %+v", st)
	}
}

func TestIPCZeroWhenIdle(t *testing.T) {
	var s Stats
	if s.IPC(375*sim.Picosecond) != 0 {
		t.Fatal("idle IPC should be 0")
	}
}

func TestHMCBackend(t *testing.T) {
	// The core works identically over the HMC host path; the same access
	// pattern should complete (latency differs).
	hsys := newHMCBackend()
	hier := cache.NewHostHierarchy()
	c := NewCore(DefaultConfig(), hier, hsys)
	f := c.ExecOps(0, []Op{{Kind: OpRead, Addr: 0, Size: 8, Dep: NoDep}})
	if f == 0 {
		t.Fatal("no time charged through HMC backend")
	}
}

func BenchmarkExecOpsStreaming(b *testing.B) {
	c, _ := newTestCore()
	ops := make([]Op, 1024)
	for i := range ops {
		ops[i] = Op{Kind: OpRead, Addr: uint64(i) * 64, Size: 8, Dep: NoDep}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ExecOps(c.cursor, ops)
	}
}

func TestStreamPrefetcherAcceleratesSequentialReads(t *testing.T) {
	mk := func() []Op {
		var ops []Op
		for i := 0; i < 2000; i++ {
			ops = append(ops, Op{Kind: OpRead, Addr: uint64(i) * 64, Size: 64, Dep: NoDep})
		}
		return ops
	}
	withPf, _ := newTestCore()
	fPf := withPf.ExecOps(0, mk())

	mem := dram.NewDDR4(nil)
	cfg := DefaultConfig()
	cfg.PrefetchLead = 0 // disabled
	noPf := NewCore(cfg, cache.NewHostHierarchy(), mem)
	fNo := noPf.ExecOps(0, mk())

	if fPf >= fNo {
		t.Fatalf("prefetcher did not help: %v vs %v", fPf, fNo)
	}
	if withPf.Stats.Prefetches == 0 {
		t.Fatal("no prefetches counted")
	}
}

func TestPrefetcherIgnoresRandomAccesses(t *testing.T) {
	c, _ := newTestCore()
	var ops []Op
	addr := uint64(1)
	for i := 0; i < 500; i++ {
		addr = (addr*6364136223846793005 + 1442695040888963407) % (1 << 26) &^ 63
		ops = append(ops, Op{Kind: OpRead, Addr: addr, Size: 64, Dep: NoDep})
	}
	c.ExecOps(0, ops)
	// A few accidental hits are possible; a random stream must not look
	// prefetchable.
	if c.Stats.Prefetches > c.Stats.CacheMisses/10 {
		t.Fatalf("random stream prefetched %d of %d misses", c.Stats.Prefetches, c.Stats.CacheMisses)
	}
}

func TestPrefetcherTracksMultipleStreams(t *testing.T) {
	// Copy interleaves a read stream and a write stream; both must be
	// tracked without evicting each other.
	c, _ := newTestCore()
	var ops []Op
	for i := 0; i < 500; i++ {
		ld := int32(len(ops))
		ops = append(ops,
			Op{Kind: OpRead, Addr: uint64(i) * 64, Size: 64, Dep: NoDep},
			Op{Kind: OpWrite, Addr: 1<<26 + 320 + uint64(i)*64, Size: 64, Dep: ld})
	}
	c.ExecOps(0, ops)
	if c.Stats.Prefetches < 400 {
		t.Fatalf("interleaved streams broke tracking: %d prefetches", c.Stats.Prefetches)
	}
}
