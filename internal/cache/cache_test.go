package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Name: "t", SizeBytes: 1024, Ways: 2, BlockSize: 64})
	// 16 blocks, 2 ways => 8 sets
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if r := c.Access(0, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(32, false); !r.Hit {
		t.Fatal("same-block offset missed")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 8 sets * 64B blocks: addresses 0, 512, 1024 share set 0
	c.Access(0, false)
	c.Access(512, false)
	c.Access(0, false)    // touch 0 so 512 is LRU
	c.Access(1024, false) // evicts 512
	if !c.Contains(0) {
		t.Fatal("recently used line evicted")
	}
	if c.Contains(512) {
		t.Fatal("LRU line not evicted")
	}
	if !c.Contains(1024) {
		t.Fatal("new line not present")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small()
	c.Access(0, true) // dirty
	c.Access(512, false)
	r := c.Access(1024, false) // set 0 full; victim is 0 (LRU) and dirty
	if !r.Writeback || r.WritebackAddr != 0 {
		t.Fatalf("expected writeback of addr 0, got %+v", r)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(512, false)
	if r := c.Access(1024, false); r.Writeback {
		t.Fatalf("clean eviction produced writeback: %+v", r)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Access(0, true)
	p, d := c.Invalidate(0)
	if !p || !d {
		t.Fatalf("invalidate: present=%v dirty=%v", p, d)
	}
	if c.Contains(0) {
		t.Fatal("line survived invalidate")
	}
	p, _ = c.Invalidate(0)
	if p {
		t.Fatal("invalidate of absent line reported present")
	}
}

func TestFlush(t *testing.T) {
	c := small()
	c.Access(0, true)
	c.Access(64, false)
	c.Access(128, true)
	if n := c.Flush(); n != 2 {
		t.Fatalf("flush returned %d dirty, want 2", n)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Fatal("lines survived flush")
	}
	if c.Stats.Flushes != 1 {
		t.Fatal("flush not counted")
	}
}

func TestDirtyLines(t *testing.T) {
	c := small()
	c.Access(0, true)
	c.Access(64, false)
	got := c.DirtyLines()
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("dirty lines %v", got)
	}
}

func TestBlockAddrRoundTrip(t *testing.T) {
	// Property: any cached address is reported back as its block base.
	c := New(Config{Name: "q", SizeBytes: 4096, Ways: 4, BlockSize: 32})
	f := func(a uint32) bool {
		addr := uint64(a)
		c.Access(addr, true)
		base := addr / 32 * 32
		return c.Contains(base) && c.Contains(base+31)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRateTracksLocality(t *testing.T) {
	// Bitmap-cache scenario from Section 4.5: repeated overlapping range
	// scans over a small bitmap region should exceed 90% hit rate.
	c := New(BitmapCacheConfig())
	base := uint64(1 << 20)
	for iter := 0; iter < 50; iter++ {
		start := base + uint64(iter)*32 // ranges overlap heavily
		for a := start; a < start+4096; a += 8 {
			c.Access(a, false)
		}
	}
	if hr := c.Stats.HitRate(); hr < 0.90 {
		t.Fatalf("bitmap cache hit rate %.3f, want >= 0.90", hr)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHostHierarchy()
	r := h.Access(4096, false)
	if !r.MemoryAccess || r.Level != 3 {
		t.Fatalf("cold access should go to memory: %+v", r)
	}
	r = h.Access(4096, false)
	if r.Level != 0 || r.MemoryAccess {
		t.Fatalf("warm access should hit L1: %+v", r)
	}
	// Latency for the L1 hit must be below the cold path's.
	cold := h.Access(1<<30, false)
	if r.Latency >= cold.Latency {
		t.Fatalf("L1 hit latency %v not below miss path %v", r.Latency, cold.Latency)
	}
}

func TestHierarchyInclusionOnMiss(t *testing.T) {
	h := NewHostHierarchy()
	h.Access(64, true)
	// After the fill, all levels hold the line; L2/L3 were marked by the
	// allocate-on-miss walk.
	for i, c := range h.Levels {
		if !c.Contains(64) {
			t.Fatalf("level %d missing line after fill", i)
		}
	}
	if n := h.FlushAll(); n == 0 {
		t.Fatal("flush of dirty hierarchy returned 0")
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	h := NewHostHierarchy()
	h.Access(64, true)
	p, d := h.Invalidate(64)
	if !p || !d {
		t.Fatalf("hierarchy invalidate: present=%v dirty=%v", p, d)
	}
	r := h.Access(64, false)
	if !r.MemoryAccess {
		t.Fatal("line survived hierarchy invalidate")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero block size", Config{SizeBytes: 100, Ways: 3, BlockSize: 0}},
		{"17 ways overflow the recency word", Config{SizeBytes: 17 * 64, Ways: 17, BlockSize: 64}},
		{"32 ways", Config{SizeBytes: 32 << 10, Ways: 32, BlockSize: 64}},
		{"1 set of 1-byte blocks drops tag bits", Config{SizeBytes: 8, Ways: 8, BlockSize: 1}},
		{"3 sets of 1-byte blocks drops tag bits", Config{SizeBytes: 6, Ways: 2, BlockSize: 1}},
		{"1 set of 2-byte blocks drops tag bits", Config{SizeBytes: 32, Ways: 16, BlockSize: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%+v) did not panic", tc.cfg)
				}
			}()
			New(tc.cfg)
		})
	}
	// The boundary geometries just inside each limit are accepted.
	New(Config{SizeBytes: 16 * 64, Ways: 16, BlockSize: 64})
	New(Config{SizeBytes: 4, Ways: 1, BlockSize: 4})
	New(Config{SizeBytes: 8, Ways: 2, BlockSize: 1})
}

func TestTable2Configs(t *testing.T) {
	for _, tc := range []struct {
		cfg    Config
		blocks uint64
	}{
		{L1DConfig(), 512},
		{L2Config(), 4096},
		{L3Config(), 131072},
		{BitmapCacheConfig(), 256},
	} {
		c := New(tc.cfg)
		if got := tc.cfg.SizeBytes / tc.cfg.BlockSize; got != tc.blocks {
			t.Fatalf("%s: %d blocks, want %d", tc.cfg.Name, got, tc.blocks)
		}
		_ = c
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(L2Config())
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%100000)*64, i%3 == 0)
	}
}
