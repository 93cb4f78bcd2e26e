package charon

import (
	"strings"
	"testing"

	"charonsim/internal/hmc"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
)

const cubeShift = 22

func newAccel(distributed bool) *Accelerator {
	sys := hmc.NewSystem(cubeShift, hmc.Star, nil)
	cfg := DefaultConfig()
	cfg.Distributed = distributed
	a := New(cfg, sys)
	// Pin the address ranges the tests touch (the initialize() intrinsic,
	// as the real host runtime would at launch).
	a.Initialize(1, AddrRange{Base: 0, Bytes: 64 << 20}, AddrRange{Base: 1 << 30, Bytes: 8 << 20})
	return a
}

func TestOffloadCopyCompletes(t *testing.T) {
	a := newAccel(false)
	done := a.OffloadCopy(0, 0, 1<<20, 4096)
	if done == 0 {
		t.Fatal("no completion time")
	}
	// Includes at least the request+response transport (~8ns) and the
	// vault accesses.
	if done < 20*sim.Nanosecond {
		t.Fatalf("copy of 4KB completed implausibly fast: %v ps", done)
	}
	if a.Stats.Offloads[KCopy] != 1 || a.Stats.RequestPackets != 1 {
		t.Fatalf("stats %+v", a.Stats)
	}
	// Read and write traffic recorded on the TSVs.
	ts := a.sys.TSVStats()
	if ts.ReadBytes != 4096 || ts.WriteBytes != 4096 {
		t.Fatalf("TSV traffic %+v", ts)
	}
}

func TestCopyScheduledToSourceCube(t *testing.T) {
	a := newAccel(false)
	src := uint64(2) << cubeShift // cube 2
	a.OffloadCopy(0, src, src+4096, 1024)
	// Unit busy on cube 2, idle elsewhere.
	if a.copySearch[2][0].busy == 0 {
		t.Fatal("cube 2 unit idle")
	}
	if a.copySearch[0][0].busy != 0 || a.copySearch[1][0].busy != 0 {
		t.Fatal("wrong cube executed the copy")
	}
}

func TestCopyThroughputNearInternalBandwidth(t *testing.T) {
	// A large single copy should move data at a rate far above the 80 GB/s
	// host link: the point of near-memory placement.
	a := newAccel(false)
	const size = 1 << 20 // 1 MB within one cube (4 MB interleave)
	// Destination offset by a few lines so src/dst streams land in
	// different banks (GC destinations are never bank-aligned with their
	// sources).
	done := a.OffloadCopy(0, 0, 1<<21+5*64, size)
	gbs := float64(2*size) / done.Seconds() / 1e9 // read + write bytes
	if gbs < 100 {
		t.Fatalf("near-memory copy only %.0f GB/s", gbs)
	}
	if gbs > 330 {
		t.Fatalf("copy exceeded internal bandwidth: %.0f GB/s", gbs)
	}
}

func TestCrossCubeCopiesRunInParallel(t *testing.T) {
	// Copies on different cubes use disjoint units and disjoint internal
	// bandwidth: the second finishes at roughly the same time as the first.
	a := newAccel(false)
	c1 := uint64(1) << cubeShift
	d1 := a.OffloadCopy(0, 0, 1<<20, 65536)
	d2 := a.OffloadCopy(0, c1, c1+1<<20, 65536)
	if float64(d2) > 1.2*float64(d1) {
		t.Fatalf("cross-cube copies did not overlap: %v vs %v", d2, d1)
	}
}

func TestSameCubeUnitsShareBandwidthAndQueue(t *testing.T) {
	// Two same-cube copies run on both units but share the cube's internal
	// bandwidth (~2x each); a third queues behind a unit (>2x).
	a := newAccel(false)
	d1 := a.OffloadCopy(0, 0, 1<<20, 65536)
	d2 := a.OffloadCopy(0, 4096, 1<<20+65536, 65536)
	d3 := a.OffloadCopy(0, 8192, 1<<20+131072, 65536)
	if float64(d2) > 3.2*float64(d1) {
		t.Fatalf("second copy implausibly slow: %v vs %v", d2, d1)
	}
	if d3 <= d2 {
		t.Fatal("third copy should queue behind a busy unit")
	}
	if a.copySearch[0][0].busy == 0 || a.copySearch[0][1].busy == 0 {
		t.Fatal("both units should have executed work")
	}
}

func TestOffloadSearchValueResponse(t *testing.T) {
	a := newAccel(false)
	a.OffloadSearch(0, 0, 2048)
	if a.Stats.Offloads[KSearch] != 1 {
		t.Fatal("search not counted")
	}
	if a.Stats.ResponseBytes != hmc.RespValueBytes {
		t.Fatalf("search response bytes = %d, want %d", a.Stats.ResponseBytes, hmc.RespValueBytes)
	}
	// Read-only: no TSV writes.
	ts := a.sys.TSVStats()
	if ts.WriteBytes != 0 {
		t.Fatal("search wrote memory")
	}
}

func TestOffloadBitmapCountUsesCache(t *testing.T) {
	a := newAccel(false)
	beg, end := uint64(0), uint64(1<<20)
	// Repeated overlapping ranges: the second call should be mostly hits.
	a.OffloadBitmapCount(0, beg, end, 4096)
	missesAfterFirst := a.bmCaches[0].Stats.Misses
	a.OffloadBitmapCount(0, beg, end, 4096)
	if a.bmCaches[0].Stats.Misses != missesAfterFirst {
		t.Fatal("second identical range missed the bitmap cache")
	}
	if a.bmCaches[0].Stats.HitRate() < 0.45 {
		t.Fatalf("hit rate %.2f too low", a.bmCaches[0].Stats.HitRate())
	}
}

func TestBitmapCountComputeBound(t *testing.T) {
	// With a warm cache, the unit is bounded by its 8 B/cycle pipeline.
	a := newAccel(false)
	busy := func() sim.Time {
		var b sim.Time
		for _, u := range a.bitmapCount[0] {
			b += u.busy
		}
		return b
	}
	a.OffloadBitmapCount(0, 0, 1<<20, 4096)
	t1 := busy()
	a.OffloadBitmapCount(0, 0, 1<<20, 4096)
	t2 := busy() - t1
	words := sim.Time(4096 / 8)
	if t2 < words*LogicPeriod {
		t.Fatalf("warm bitmap count %v faster than pipeline bound %v", t2, words*LogicPeriod)
	}
}

func TestScanPushAlwaysCentralCube(t *testing.T) {
	a := newAccel(false)
	refs := []RefOp{{Slot: 3 << cubeShift, Target: 2 << cubeShift, CheckHeader: true, Push: true}}
	a.OffloadScanPush(0, 3<<cubeShift, refs, 1<<30)
	busy := sim.Time(0)
	for _, u := range a.scanPush {
		busy += u.busy
	}
	if busy == 0 {
		t.Fatal("scan&push unit idle")
	}
	// Accesses from cube 0 to cube 3/2 addresses are remote.
	if a.sys.RemoteAccesses == 0 {
		t.Fatal("remote slot access not routed")
	}
}

func TestScanPushCoalescesContiguousSlots(t *testing.T) {
	a := newAccel(false)
	var refs []RefOp
	for i := 0; i < 32; i++ {
		refs = append(refs, RefOp{Slot: uint64(4096 + 8*i)})
	}
	a.OffloadScanPush(0, 4096, refs, 1<<30)
	ts := a.sys.TSVStats()
	// 32 contiguous slots = 256 B = a single streaming read.
	if ts.Reads != 1 {
		t.Fatalf("%d reads for 32 contiguous slots, want 1 coalesced", ts.Reads)
	}
}

func TestScanPushDependentChainSlower(t *testing.T) {
	aFast := newAccel(false)
	aSlow := newAccel(false)
	// Same slots; one with header checks + pushes, one bare.
	mk := func(check bool) []RefOp {
		var refs []RefOp
		for i := 0; i < 16; i++ {
			refs = append(refs, RefOp{
				Slot: uint64(4096 + 8*i), Target: uint64(1<<21 + 4096*i),
				CheckHeader: check, Push: check,
			})
		}
		return refs
	}
	dBare := aFast.OffloadScanPush(0, 4096, mk(false), 1<<30)
	dFull := aSlow.OffloadScanPush(0, 4096, mk(true), 1<<30)
	if dFull <= dBare {
		t.Fatal("dependent header checks should add latency")
	}
}

func TestUnifiedVsDistributedBitmapCache(t *testing.T) {
	// Bitmap Count on a non-central cube: unified placement pays a round
	// trip to the centre per access; distributed slices are local.
	begCube1 := uint64(1) << cubeShift
	aU := newAccel(false)
	aD := newAccel(true)
	dU := aU.OffloadBitmapCount(0, begCube1, begCube1+1<<20, 2048)
	dD := aD.OffloadBitmapCount(0, begCube1, begCube1+1<<20, 2048)
	if dD >= dU {
		t.Fatalf("distributed (%v) should beat unified (%v) off-centre", dD, dU)
	}
	if aU.Stats.TLBRemote == 0 {
		t.Fatal("unified TLB remote lookups not counted")
	}
	if aD.Stats.TLBRemote != 0 {
		t.Fatal("distributed TLB should be local")
	}
}

func TestBitmapCacheFlush(t *testing.T) {
	a := newAccel(false)
	refs := []RefOp{{Slot: 4096, Target: 8192, CheckHeader: true, MarkBitmap: true}}
	a.OffloadScanPush(0, 4096, refs, 1<<30)
	writesBefore := a.sys.TSVStats().Writes
	end := a.FlushBitmapCaches(1000)
	if a.sys.TSVStats().Writes <= writesBefore {
		t.Fatal("flush wrote nothing despite dirty mark lines")
	}
	if end == 0 {
		t.Fatal("flush time zero")
	}
	if a.bmCaches[0].Contains(8192) {
		t.Fatal("cache not emptied")
	}
}

func TestMAIBoundsInflight(t *testing.T) {
	// With MAI=1 the streaming copy degenerates to serial accesses; with
	// 32 it overlaps. Compare.
	sys1 := hmc.NewSystem(cubeShift, hmc.Star, nil)
	cfg1 := DefaultConfig()
	cfg1.MAIEntries = 1
	a1 := New(cfg1, sys1)
	dSerial := a1.OffloadCopy(0, 0, 1<<20, 65536)

	a32 := newAccel(false)
	dParallel := a32.OffloadCopy(0, 0, 1<<20, 65536)
	if dParallel*2 > dSerial {
		t.Fatalf("MAI parallelism ineffective: serial %v, parallel %v", dSerial, dParallel)
	}
}

func TestHostLinkCarriesOnlyPackets(t *testing.T) {
	a := newAccel(false)
	a.OffloadCopy(0, 0, 1<<20, 1<<16)
	hl := a.sys.HostLink().Stats.Bytes()
	if hl != hmc.OffloadReqBytes+hmc.RespPlainBytes {
		t.Fatalf("host link carried %d bytes, want only the packets (%d)",
			hl, hmc.OffloadReqBytes+hmc.RespPlainBytes)
	}
}

func TestUnitBusyAccounting(t *testing.T) {
	a := newAccel(false)
	a.OffloadCopy(0, 0, 1<<20, 4096)
	a.OffloadScanPush(0, 4096, []RefOp{{Slot: 4096}}, 1<<30)
	a.OffloadBitmapCount(0, 0, 1<<20, 512)
	cs, sp, bc := a.UnitBusy()
	if cs == 0 || sp == 0 || bc == 0 {
		t.Fatalf("busy accounting: %v %v %v", cs, sp, bc)
	}
}

func BenchmarkOffloadCopy(b *testing.B) {
	a := newAccel(false)
	t := sim.Time(0)
	for i := 0; i < b.N; i++ {
		t = a.OffloadCopy(t, uint64(i%1024)*4096, 1<<21, 4096)
	}
}

func TestConfigurableStreamGrain(t *testing.T) {
	run := func(grain uint64) sim.Time {
		sys := hmc.NewSystem(cubeShift, hmc.Star, nil)
		cfg := DefaultConfig()
		cfg.StreamGrain = grain
		a := New(cfg, sys)
		return a.OffloadCopy(0, 0, 1<<21+320, 1<<18)
	}
	// Smaller grains need more request slots: 64B should be slower than
	// the 256B maximum for a large copy.
	if run(256) >= run(64) {
		t.Fatal("grain=256B not faster than grain=64B")
	}
}

func TestConfigurableBitmapCacheSize(t *testing.T) {
	mk := func(bytes uint64) *Accelerator {
		sys := hmc.NewSystem(cubeShift, hmc.Star, nil)
		cfg := DefaultConfig()
		cfg.BitmapCacheBytes = bytes
		return New(cfg, sys)
	}
	big := mk(32 << 10)
	small := mk(1 << 10)
	// Scan a range larger than the small cache twice: the big cache keeps
	// it resident, the small one thrashes.
	for i := 0; i < 2; i++ {
		big.OffloadBitmapCount(0, 0, 1<<20, 2048)
		small.OffloadBitmapCount(0, 0, 1<<20, 2048)
	}
	if big.bmCaches[0].Stats.HitRate() <= small.bmCaches[0].Stats.HitRate() {
		t.Fatalf("capacity had no effect: big %.2f vs small %.2f",
			big.bmCaches[0].Stats.HitRate(), small.bmCaches[0].Stats.HitRate())
	}
}

func TestTLBPinnedPagesNeverMiss(t *testing.T) {
	// Section 4.6: pinned huge pages mean no TLB misses during execution.
	a := newAccel(false)
	a.Initialize(1, AddrRange{Base: 0, Bytes: 16 << 20})
	a.OffloadCopy(0, 0, 1<<21, 4096)
	a.OffloadSearch(0, 1<<20, 2048)
	a.OffloadBitmapCount(0, 4096, 1<<22, 512)
	a.OffloadScanPush(0, 8192, []RefOp{{Slot: 8192, Target: 1 << 21, CheckHeader: true}}, 1<<22)
	if a.Stats.TLBWalks != 0 {
		t.Fatalf("%d page walks despite pinned pages", a.Stats.TLBWalks)
	}
	if a.Stats.TLBAccesses == 0 {
		t.Fatal("no TLB activity counted")
	}
}

func TestTLBMissWalksAndRefills(t *testing.T) {
	a := New(DefaultConfig(), hmc.NewSystem(cubeShift, hmc.Star, nil))
	// No Initialize: the first offload to a page walks, the second hits.
	d1 := a.OffloadCopy(0, 0, 1<<21+64, 256)
	if a.Stats.TLBWalks != 1 {
		t.Fatalf("walks = %d, want 1", a.Stats.TLBWalks)
	}
	walksAfter := a.Stats.TLBWalks
	a.OffloadCopy(d1, 4096, 1<<21+8192, 256)
	if a.Stats.TLBWalks != walksAfter {
		t.Fatal("second access to the same page walked again")
	}
}

func TestTLBStructure(t *testing.T) {
	tl := newTLB(4, 22)
	if tl.Lookup(1, 0) {
		t.Fatal("empty TLB hit")
	}
	tl.Insert(1, 0)
	if !tl.Lookup(1, 1<<21) { // same 4MB page
		t.Fatal("page-granularity lookup failed")
	}
	if tl.Lookup(2, 0) {
		t.Fatal("PCID isolation violated")
	}
	// Capacity eviction: fill 4 entries for pcid 1, then a 5th evicts LRU.
	for i := 1; i <= 4; i++ {
		tl.Insert(1, uint64(i)<<22)
	}
	if tl.Coverage() != 4 {
		t.Fatalf("coverage %d", tl.Coverage())
	}
	if tl.Lookup(1, 0) { // original entry was LRU and evicted
		t.Fatal("LRU entry survived over-capacity inserts")
	}
	tl.Flush()
	if tl.Coverage() != 0 {
		t.Fatal("flush incomplete")
	}
}

func TestUnifiedTLBRemotePenalty(t *testing.T) {
	aU := newAccel(false)
	aD := newAccel(true)
	for _, a := range []*Accelerator{aU, aD} {
		a.Initialize(1, AddrRange{Base: 0, Bytes: 16 << 20})
	}
	c1 := uint64(1) << cubeShift
	dU := aU.OffloadCopy(0, c1, c1+1<<20, 1024)
	dD := aD.OffloadCopy(0, c1, c1+1<<20, 1024)
	if dD >= dU {
		t.Fatalf("distributed TLB (%v) should beat unified (%v) off-centre", dD, dU)
	}
	if aU.Stats.TLBRemote == 0 || aD.Stats.TLBRemote != 0 {
		t.Fatalf("remote counters: unified %d, distributed %d", aU.Stats.TLBRemote, aD.Stats.TLBRemote)
	}
}

// scriptedOffloads drives a fixed descriptor sequence exercising every
// offload kind across several cubes, returning the host-visible finish.
func scriptedOffloads(a *Accelerator) sim.Time {
	t := sim.Time(0)
	for c := uint64(0); c < 3; c++ {
		base := c << cubeShift
		t = a.OffloadCopy(t, base, base+1<<20, 4096)
		t = a.OffloadSearch(t, base+2<<10, 2048)
		t = a.OffloadBitmapCount(t, base+4096, base+1<<21, 512)
	}
	t = a.OffloadScanPush(t, 8192, []RefOp{
		{Slot: 8192, Target: 1 << 21, CheckHeader: true},
		{Slot: 16384, Target: 2 << 21},
	}, 1<<30)
	return t
}

func TestPerUnitMetricsAgreeWithUnitBusy(t *testing.T) {
	// The per-unit metric counters and the UnitBusy aggregate are two
	// independent accountings of the same reservations; they must agree
	// exactly on a scripted descriptor sequence.
	a := newAccel(false)
	if end := scriptedOffloads(a); end == 0 {
		t.Fatal("scripted sequence did not run")
	}
	reg := metrics.NewRegistry()
	a.Collect(reg, "charon", 0)

	var csM, spM, bcM sim.Time
	var csReq, spReq, bcReq, other float64
	for _, name := range reg.Names() {
		switch {
		case strings.Contains(name, "/copysearch"):
			if strings.HasSuffix(name, "/busy_ps") {
				csM += sim.Time(reg.Counter(name))
			} else if strings.HasSuffix(name, "/requests") {
				csReq += reg.Counter(name)
			}
		case strings.Contains(name, "/scanpush") && !strings.HasPrefix(name, "charon/offload"):
			if strings.HasSuffix(name, "/busy_ps") {
				spM += sim.Time(reg.Counter(name))
			} else if strings.HasSuffix(name, "/requests") {
				spReq += reg.Counter(name)
			}
		case strings.Contains(name, "/bitmapcount") && !strings.HasPrefix(name, "charon/offload"):
			if strings.HasSuffix(name, "/busy_ps") {
				bcM += sim.Time(reg.Counter(name))
			} else if strings.HasSuffix(name, "/requests") {
				bcReq += reg.Counter(name)
			}
		default:
			other++
		}
	}
	cs, sp, bc := a.UnitBusy()
	if csM != cs || spM != sp || bcM != bc {
		t.Fatalf("busy accounting disagrees: metrics (%v, %v, %v) vs UnitBusy (%v, %v, %v)",
			csM, spM, bcM, cs, sp, bc)
	}
	if want := float64(a.Stats.Offloads[KCopy] + a.Stats.Offloads[KSearch]); csReq != want {
		t.Fatalf("copysearch requests %v, want %v", csReq, want)
	}
	if want := float64(a.Stats.Offloads[KScanPush]); spReq != want {
		t.Fatalf("scanpush requests %v, want %v", spReq, want)
	}
	if want := float64(a.Stats.Offloads[KBitmapCount]); bcReq != want {
		t.Fatalf("bitmapcount requests %v, want %v", bcReq, want)
	}
	if other == 0 {
		t.Fatal("expected offload/tlb/cache counters beyond the unit ones")
	}
}

func TestTraceSpanPerOffload(t *testing.T) {
	a := newAccel(false)
	rec := metrics.NewRecorder(0)
	a.SetRecorder(rec)
	scriptedOffloads(a)
	var offs uint64
	for _, n := range a.Stats.Offloads {
		offs += n
	}
	if got := uint64(rec.Len()); got != offs {
		t.Fatalf("recorded %d spans for %d offloads", got, offs)
	}
}

func TestRequesterBytesMatchVaultService(t *testing.T) {
	// The accelerator-local form of the byte-conservation invariant: what
	// memAccess requested equals what the vaults served (no host traffic
	// here, so the two sides are directly comparable).
	a := newAccel(false)
	scriptedOffloads(a)
	if a.Stats.Mem.Bytes() == 0 {
		t.Fatal("no requester-side traffic recorded")
	}
	vs := a.sys.VaultStats()
	if a.Stats.Mem.ReadBytes != vs.ReadBytes || a.Stats.Mem.WriteBytes != vs.WriteBytes {
		t.Fatalf("requested (%d r / %d w) != served (%d r / %d w)",
			a.Stats.Mem.ReadBytes, a.Stats.Mem.WriteBytes, vs.ReadBytes, vs.WriteBytes)
	}
}
