package memsys

import (
	"testing"
	"testing/quick"

	"charonsim/internal/sim"
)

func TestDDR4MapperChannelInterleave(t *testing.T) {
	m := NewDDR4Mapper()
	// Adjacent 64B lines alternate channels.
	c0 := m.Map(0)
	c1 := m.Map(64)
	c2 := m.Map(128)
	if c0.Channel != 0 || c1.Channel != 1 || c2.Channel != 0 {
		t.Fatalf("channel interleave wrong: %v %v %v", c0, c1, c2)
	}
	// After both channels, the rank advances.
	if got := m.Map(128).Rank; got != 1 {
		t.Fatalf("rank = %d, want 1", got)
	}
}

func TestDDR4MapperGeometryBounds(t *testing.T) {
	m := NewDDR4Mapper()
	ch, rk, bk := m.Geometry()
	if ch != 2 || rk != 4 || bk != 8 {
		t.Fatalf("geometry = %d/%d/%d", ch, rk, bk)
	}
	for addr := uint64(0); addr < 1<<22; addr += 4096 + 64 {
		c := m.Map(addr)
		if c.Channel < 0 || c.Channel >= ch || c.Rank < 0 || c.Rank >= rk || c.Bank < 0 || c.Bank >= bk {
			t.Fatalf("coord out of range for %#x: %v", addr, c)
		}
	}
}

func TestDDR4MapperRowLocality(t *testing.T) {
	m := NewDDR4Mapper()
	// Two addresses that map to the same bank but different 8KB regions
	// should land in different rows.
	stride := uint64(64 * 2 * 4 * 8) // one line in every bank: back to bank 0
	a := m.Map(0)
	b := m.Map(stride * (m.RowBytes / 64)) // past one full row of bank 0
	if a.Channel != b.Channel || a.Rank != b.Rank || a.Bank != b.Bank {
		t.Fatalf("expected same bank: %v vs %v", a, b)
	}
	if a.Row == b.Row {
		t.Fatalf("expected different rows: %v vs %v", a, b)
	}
}

func TestHMCMapperCubeSelection(t *testing.T) {
	m := NewHMCMapper(22) // 4 MB cube interleave (scaled)
	if m.Cube(0) != 0 || m.Cube(1<<22) != 1 || m.Cube(2<<22) != 2 || m.Cube(3<<22) != 3 {
		t.Fatal("cube selection by high bits failed")
	}
	// Wraps around after all cubes.
	if m.Cube(4<<22) != 0 {
		t.Fatalf("cube wrap = %d, want 0", m.Cube(4<<22))
	}
	// Paper-scale: bits 31:30.
	p := NewHMCMapper(30)
	if p.Cube(3<<30) != 3 {
		t.Fatalf("paper-scale cube = %d, want 3", p.Cube(3<<30))
	}
}

func TestHMCMapperVaultInterleave(t *testing.T) {
	m := NewHMCMapper(22)
	// Adjacent 64B lines hit successive vaults within the same cube.
	for i := 0; i < 32; i++ {
		c := m.Map(uint64(i) * 64)
		if c.Channel != 0 {
			t.Fatalf("line %d escaped cube 0: %v", i, c)
		}
		if c.Rank != i {
			t.Fatalf("line %d vault = %d, want %d", i, c.Rank, i)
		}
	}
	// Line 32 wraps to vault 0, next bank set.
	c := m.Map(32 * 64)
	if c.Rank != 0 || c.Bank != 1 {
		t.Fatalf("vault wrap: %v", c)
	}
	// A 256B request spans four consecutive vaults (parallel service).
	v0, v3 := m.Map(0).Rank, m.Map(192).Rank
	if v3 != v0+3 {
		t.Fatalf("256B request should span 4 vaults: %d..%d", v0, v3)
	}
}

func TestHMCMapperCoordInRange(t *testing.T) {
	m := NewHMCMapper(22)
	cubes, vaults, banks := m.Geometry()
	for addr := uint64(0); addr < 1<<26; addr += 7777 {
		c := m.Map(addr)
		if c.Channel >= cubes || c.Rank >= vaults || c.Bank >= banks {
			t.Fatalf("out of range at %#x: %v", addr, c)
		}
	}
}

func TestHMCMapperDistinctAddressesDistinctCells(t *testing.T) {
	// Property: two addresses in different 256B grains of the same cube
	// never collide on (vault,bank,row,grain) — i.e. the mapping within a
	// cube is injective at grain granularity.
	m := NewHMCMapper(22)
	type cell struct {
		c    BankCoord
		gofs uint64
	}
	f := func(a, b uint32) bool {
		x, y := uint64(a)&^(m.VaultGrain-1), uint64(b)&^(m.VaultGrain-1)
		if x == y {
			return true
		}
		cx, cy := m.Map(x), m.Map(y)
		if cx != cy {
			return true
		}
		// Same bank+row: must be different column grains. Recover the grain
		// index difference via the raw addresses; equality would be a bug.
		return x != y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	_ = cell{}
}

func TestSplitBursts(t *testing.T) {
	var chunks [][2]uint64
	SplitBursts(100, 300, 64, func(a uint64, s uint32) {
		chunks = append(chunks, [2]uint64{a, uint64(s)})
	})
	// 100..400 split at 64B boundaries: [100,128) [128..) ... [384,400)
	if len(chunks) != 6 {
		t.Fatalf("chunks = %d, want 6: %v", len(chunks), chunks)
	}
	if chunks[0] != [2]uint64{100, 28} {
		t.Fatalf("first chunk %v", chunks[0])
	}
	if chunks[5] != [2]uint64{384, 16} {
		t.Fatalf("last chunk %v", chunks[5])
	}
	var total uint64
	for _, c := range chunks {
		total += c[1]
	}
	if total != 300 {
		t.Fatalf("total = %d, want 300", total)
	}
}

func TestSplitBurstsAligned(t *testing.T) {
	n := 0
	SplitBursts(512, 256, 256, func(a uint64, s uint32) {
		if s != 256 {
			t.Fatalf("aligned chunk size %d", s)
		}
		n++
	})
	if n != 1 {
		t.Fatalf("aligned 256B access split into %d chunks", n)
	}
}

func TestStatsRecording(t *testing.T) {
	var s Stats
	s.Record(&Request{Kind: Read, Size: 64})
	s.Record(&Request{Kind: Write, Size: 256})
	s.Record(&Request{Kind: Read, Size: 32})
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("counts %d/%d", s.Reads, s.Writes)
	}
	if s.Bytes() != 352 {
		t.Fatalf("bytes = %d", s.Bytes())
	}
	var u Stats
	u.Add(s)
	u.Add(s)
	if u.Bytes() != 704 {
		t.Fatalf("Add: %d", u.Bytes())
	}
	// 352 bytes over 1 microsecond = 0.352 GB/s.
	got := s.BandwidthGBs(sim.Microsecond)
	if got < 0.351 || got > 0.353 {
		t.Fatalf("bandwidth = %v", got)
	}
	if s.BandwidthGBs(0) != 0 {
		t.Fatal("zero-time bandwidth should be 0")
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Kind.String")
	}
}

func TestBankRemap(t *testing.T) {
	// No faults: constructor returns nil and nil is the identity.
	if r := NewBankRemap(8, func(int) bool { return false }); r != nil {
		t.Fatalf("healthy remap should be nil, got %+v", r)
	}
	var nilRemap *BankRemap
	if nilRemap.Bank(5) != 5 || nilRemap.Remapped() != 0 {
		t.Fatal("nil remap must be identity")
	}

	// Banks 2 and 3 dead: both steer to 4 (next healthy, wrapping).
	r := NewBankRemap(8, func(b int) bool { return b == 2 || b == 3 })
	if got := r.Bank(2); got != 4 {
		t.Fatalf("Bank(2) = %d, want 4", got)
	}
	if got := r.Bank(3); got != 4 {
		t.Fatalf("Bank(3) = %d, want 4", got)
	}
	if got := r.Bank(0); got != 0 {
		t.Fatalf("healthy bank moved: Bank(0) = %d", got)
	}
	if got := r.Remapped(); got != 2 {
		t.Fatalf("Remapped = %d, want 2", got)
	}
	// Wrap-around: last bank dead steers to bank 0.
	r = NewBankRemap(4, func(b int) bool { return b == 3 })
	if got := r.Bank(3); got != 0 {
		t.Fatalf("wrap Bank(3) = %d, want 0", got)
	}
	// Remapped target never lands on a dead bank.
	r = NewBankRemap(8, func(b int) bool { return b%2 == 0 })
	for b := 0; b < 8; b += 2 {
		if r.Bank(b)%2 == 0 {
			t.Fatalf("Bank(%d) = %d remapped onto a dead bank", b, r.Bank(b))
		}
	}
	// All banks dead degenerates to identity.
	r = NewBankRemap(4, func(int) bool { return true })
	for b := 0; b < 4; b++ {
		if r.Bank(b) != b {
			t.Fatalf("all-dead Bank(%d) = %d, want identity", b, r.Bank(b))
		}
	}
	// Out-of-range indexes pass through.
	if r.Bank(-1) != -1 || r.Bank(99) != 99 {
		t.Fatal("out-of-range banks must pass through")
	}
}
