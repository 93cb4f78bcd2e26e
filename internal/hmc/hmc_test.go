package hmc

import (
	"runtime"
	"testing"

	"charonsim/internal/memsys"
	"charonsim/internal/sim"
)

const testCubeShift = 22 // 4 MB cube interleave for scaled heaps

func TestLinkSerialization(t *testing.T) {
	l := NewLink(DefaultLinkConfig(), nil, "")
	// 80 bytes at 80 GB/s = 1 ns serialization + 3 ns latency.
	arrive := l.TransferAt(0, DirDown, 80)
	if arrive != 4*sim.Nanosecond {
		t.Fatalf("arrival = %v ps, want 4000", arrive)
	}
	// Second packet queues behind the first's serialization (not latency).
	arrive2 := l.TransferAt(0, DirDown, 80)
	if arrive2 != 5*sim.Nanosecond {
		t.Fatalf("second arrival = %v ps, want 5000", arrive2)
	}
}

func TestLinkFullDuplex(t *testing.T) {
	l := NewLink(DefaultLinkConfig(), nil, "")
	a := l.TransferAt(0, DirDown, 80)
	b := l.TransferAt(0, DirUp, 80)
	if a != b {
		t.Fatalf("directions should not contend: %v vs %v", a, b)
	}
}

func TestLinkBandwidthCap(t *testing.T) {
	l := NewLink(DefaultLinkConfig(), nil, "")
	var last sim.Time
	const n = 1000
	for i := 0; i < n; i++ {
		last = l.TransferAt(0, DirDown, 256)
	}
	gbs := float64(n*256) / (last - l.cfg.Latency).Seconds() / 1e9
	if gbs > 80.5 || gbs < 79 {
		t.Fatalf("link streaming bandwidth %.1f GB/s, want ~80", gbs)
	}
}

func TestHostAccessLatencyOrdering(t *testing.T) {
	// A host access to cube 0 must be faster than to a leaf cube (extra hop).
	sA := NewSystem(testCubeShift, Star, nil)
	c0done := sA.HostAccessAt(0, memsys.Read, 0, 64)

	sB := NewSystem(testCubeShift, Star, nil)
	c1done := sB.HostAccessAt(0, memsys.Read, 1<<testCubeShift, 64)

	if c0done == 0 || c1done == 0 {
		t.Fatal("requests did not complete")
	}
	if c1done <= c0done {
		t.Fatalf("leaf-cube access (%v) should be slower than centre (%v)", c1done, c0done)
	}
	// The difference is two extra link traversals: >= 6ns.
	if c1done-c0done < 6*sim.Nanosecond {
		t.Fatalf("leaf overhead %v ps too small", c1done-c0done)
	}
}

func TestNearLocalBeatsHostPath(t *testing.T) {
	// The whole premise of Charon: a local near-memory access skips the
	// host link and its packet overheads.
	sA := NewSystem(testCubeShift, Star, nil)
	localDone := sA.NearAccessAt(0, 0, memsys.Read, 0, 256)

	sB := NewSystem(testCubeShift, Star, nil)
	hostDone := sB.HostAccessAt(0, memsys.Read, 0, 256)

	if localDone >= hostDone {
		t.Fatalf("near access (%v) not faster than host path (%v)", localDone, hostDone)
	}
	if sA.LocalAccesses != 1 || sA.RemoteAccesses != 0 {
		t.Fatalf("locality counters %d/%d", sA.LocalAccesses, sA.RemoteAccesses)
	}
}

func TestNearRemoteRouting(t *testing.T) {
	s := NewSystem(testCubeShift, Star, nil)
	addrCube2 := uint64(2) << testCubeShift

	// From cube 1 to cube 2: traverses link1 up then link2 down.
	s.NearAccessAt(0, 1, memsys.Read, addrCube2, 256)
	if s.RemoteAccesses != 1 {
		t.Fatal("remote access not counted")
	}
	if s.CubeLink(1).Stats.Bytes() == 0 || s.CubeLink(2).Stats.Bytes() == 0 {
		t.Fatal("star routing did not use both leaf links")
	}
	if s.HostLink().Stats.Bytes() != 0 {
		t.Fatal("near-memory access leaked onto the host link")
	}
}

func TestNearRemoteFromCentreOneHop(t *testing.T) {
	s := NewSystem(testCubeShift, Star, nil)
	addrCube3 := uint64(3) << testCubeShift
	done := s.NearAccessAt(0, 0, memsys.Read, addrCube3, 64)

	s2 := NewSystem(testCubeShift, Star, nil)
	addrCube2 := uint64(2) << testCubeShift
	done2 := s2.NearAccessAt(0, 1, memsys.Read, addrCube2, 64)

	if done >= done2 {
		t.Fatalf("one-hop (%v) should beat two-hop (%v)", done, done2)
	}
}

func TestCubeInternalBandwidth(t *testing.T) {
	// Streaming 256B reads across all vaults of one cube should approach
	// the 320 GB/s internal bandwidth.
	s := NewSystem(testCubeShift, Star, nil)
	const n = 4096
	var last sim.Time
	for i := 0; i < n; i++ {
		done := s.NearAccessAt(0, 0, memsys.Read, uint64(i)*256, 256)
		if done > last {
			last = done
		}
	}
	gbs := float64(n*256) / last.Seconds() / 1e9
	if gbs > 330 {
		t.Fatalf("internal bandwidth %.0f GB/s exceeds 320 cap", gbs)
	}
	if gbs < 200 {
		t.Fatalf("internal streaming only %.0f GB/s, want near 320", gbs)
	}
}

func TestInternalBandwidthExceedsHostLink(t *testing.T) {
	// Core claim of the paper: internal TSV bandwidth (320 GB/s/cube) far
	// exceeds what the host can pull over its 80 GB/s link.
	sn := NewSystem(testCubeShift, Star, nil)
	const n = 2048
	var nearLast sim.Time
	for i := 0; i < n; i++ {
		if d := sn.NearAccessAt(0, 0, memsys.Read, uint64(i)*256, 256); d > nearLast {
			nearLast = d
		}
	}

	sh := NewSystem(testCubeShift, Star, nil)
	var hostLast sim.Time
	for i := 0; i < n; i++ {
		if d := sh.HostAccessAt(0, memsys.Read, uint64(i)*256, 256); d > hostLast {
			hostLast = d
		}
	}
	if nearLast*2 > hostLast {
		t.Fatalf("near path (%v) should be >2x faster than host path (%v) when streaming", nearLast, hostLast)
	}
}

func TestVaultAndTSVStats(t *testing.T) {
	s := NewSystem(testCubeShift, Star, nil)
	s.NearAccessAt(0, 0, memsys.Read, 0, 256)
	s.NearAccessAt(0, 0, memsys.Write, 512, 128)
	ts := s.TSVStats()
	if ts.Reads != 1 || ts.Writes != 1 {
		t.Fatalf("TSV stats %+v", ts)
	}
	vs := s.VaultStats()
	if vs.Bytes() != 384 {
		t.Fatalf("vault bytes %d", vs.Bytes())
	}
}

func TestLocalRatio(t *testing.T) {
	s := NewSystem(testCubeShift, Star, nil)
	if s.LocalRatio() != 0 {
		t.Fatal("idle ratio should be 0")
	}
	s.NearAccessAt(0, 0, memsys.Read, 0, 64)
	s.NearAccessAt(0, 0, memsys.Read, 0, 64)
	s.NearAccessAt(0, 0, memsys.Read, 1<<testCubeShift, 64)
	if r := s.LocalRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("local ratio %.3f, want 2/3", r)
	}
}

func TestPacketConstants(t *testing.T) {
	// Section 4.1's protocol sizes.
	if OffloadReqBytes != 48 || RespPlainBytes != 16 || RespValueBytes != 32 || PacketOverhead != 16 {
		t.Fatal("packet constants drifted from the paper")
	}
}

// BenchmarkNearAccess issues each access when the previous one completes,
// over a 4096-slot address window, so ns/op does not grow with b.N. A
// warm-up first advances simulated time past every calendar's ring
// window, then collects its garbage and re-warms the caches the
// collection evicted: short and long runs both time the steady state of
// a long replay, ring slides and spill-chunk retirement included.
func BenchmarkNearAccess(b *testing.B) {
	s := NewSystem(testCubeShift, Star, nil)
	at := sim.Time(0)
	access := func(i int) {
		at = s.NearAccessAt(at, i%4, memsys.Read, uint64(i%4096)*256, 256)
	}
	for i := 0; i < 1<<16; i++ {
		access(i)
	}
	runtime.GC()
	for i := 0; i < 4096; i++ {
		access(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access(i)
	}
}

func TestChainTopologyRouting(t *testing.T) {
	s := NewSystem(testCubeShift, Chain, nil)
	if s.Topology() != Chain || s.Topology().String() != "chain" {
		t.Fatal("topology accessor")
	}
	// Access from cube 0 to cube 3 crosses links 1, 2, 3 in the chain.
	addr3 := uint64(3) << testCubeShift
	s.NearAccessAt(0, 0, memsys.Read, addr3, 64)
	for i := 1; i <= 3; i++ {
		if s.CubeLink(i).Stats.Bytes() == 0 {
			t.Fatalf("chain link %d idle for a 0->3 access", i)
		}
	}
}

func TestChainFartherCubesSlower(t *testing.T) {
	// Chain latency grows with hop distance; the star reaches any leaf in
	// at most two hops.
	dist := func(topo Topology, cube int) sim.Time {
		s := NewSystem(testCubeShift, topo, nil)
		return s.NearAccessAt(0, 0, memsys.Read, uint64(cube)<<testCubeShift, 64)
	}
	if !(dist(Chain, 1) < dist(Chain, 2) && dist(Chain, 2) < dist(Chain, 3)) {
		t.Fatal("chain latency not monotonic in distance")
	}
	if dist(Star, 3) >= dist(Chain, 3) {
		t.Fatalf("star to cube 3 (%v) should beat 3-hop chain (%v)", dist(Star, 3), dist(Chain, 3))
	}
}

func TestChainHostPathCompletes(t *testing.T) {
	s := NewSystem(testCubeShift, Chain, nil)
	done := s.HostAccessAt(0, memsys.Read, uint64(3)<<testCubeShift, 64)
	if done < 12*sim.Nanosecond {
		t.Fatalf("3-hop chain host access implausibly fast: %v", done)
	}
}
