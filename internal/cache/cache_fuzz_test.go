package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// driveBoth replays one seeded operation stream on the Cache and the
// stamp-based reference, failing on the first divergence in a Result, the
// Stats, a Contains or Invalidate answer, a Flush count, or the contents
// and order of AppendDirtyLines.
func driveBoth(t *testing.T, seed int64, cfg Config, nops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	got, ref := New(cfg), newReferenceCache(cfg)
	nsets := cfg.SizeBytes / cfg.BlockSize / uint64(cfg.Ways)
	lines := nsets * uint64(cfg.Ways)
	var stream uint64
	addr := func() uint64 {
		var blk uint64
		switch rng.Intn(10) {
		case 0, 1, 2: // hot pool: mostly hits
			blk = rng.Uint64() % (lines/2 + 1)
		case 3, 4: // three times the capacity: hits and evictions
			blk = rng.Uint64() % (3 * lines)
		case 5, 6: // one set, twice its ways in tags: LRU order decides
			blk = rng.Uint64()%uint64(2*cfg.Ways)*nsets + uint64(seed)%nsets
		case 7, 8: // streaming
			stream++
			blk = stream
		default: // anywhere in the address space: full-width tags
			return rng.Uint64()
		}
		return blk*cfg.BlockSize + rng.Uint64()%cfg.BlockSize
	}
	var gotDirty, refDirty []uint64
	for i := 0; i < nops; i++ {
		switch op := rng.Intn(100); {
		case op < 85:
			a, write := addr(), rng.Intn(3) == 0
			if g, w := got.Access(a, write), ref.Access(a, write); g != w {
				t.Fatalf("%s seed %d op %d: Access(%#x, %v) = %+v, reference %+v", cfg.Name, seed, i, a, write, g, w)
			}
		case op < 92:
			a := addr()
			if g, w := got.Contains(a), ref.Contains(a); g != w {
				t.Fatalf("%s seed %d op %d: Contains(%#x) = %v, reference %v", cfg.Name, seed, i, a, g, w)
			}
		case op < 98:
			a := addr()
			gp, gd := got.Invalidate(a)
			wp, wd := ref.Invalidate(a)
			if gp != wp || gd != wd {
				t.Fatalf("%s seed %d op %d: Invalidate(%#x) = %v,%v, reference %v,%v", cfg.Name, seed, i, a, gp, gd, wp, wd)
			}
		case op < 99:
			gotDirty, refDirty = got.AppendDirtyLines(gotDirty[:0]), ref.AppendDirtyLines(refDirty[:0])
			if !slices.Equal(gotDirty, refDirty) {
				t.Fatalf("%s seed %d op %d: AppendDirtyLines = %v, reference %v", cfg.Name, seed, i, gotDirty, refDirty)
			}
		default:
			if rng.Intn(4) == 0 {
				if g, w := got.Flush(), ref.Flush(); g != w {
					t.Fatalf("%s seed %d op %d: Flush = %d, reference %d", cfg.Name, seed, i, g, w)
				}
			}
		}
		if got.Stats != ref.Stats {
			t.Fatalf("%s seed %d op %d: Stats = %+v, reference %+v", cfg.Name, seed, i, got.Stats, ref.Stats)
		}
	}
	gotDirty, refDirty = got.AppendDirtyLines(gotDirty[:0]), ref.AppendDirtyLines(refDirty[:0])
	if !slices.Equal(gotDirty, refDirty) {
		t.Fatalf("%s seed %d: final AppendDirtyLines = %v, reference %v", cfg.Name, seed, gotDirty, refDirty)
	}
}

// equivalenceGeometries is every shipped geometry plus 1/2/4/8/16 ways at
// power-of-two and other set counts, with power-of-two and other block
// sizes, down to the smallest geometry whose tags still pack losslessly.
func equivalenceGeometries() []Config {
	cfgs := []Config{
		L1DConfig(), L2Config(), L3Config(),
		ScaledL1DConfig(), ScaledL2Config(), ScaledL3Config(),
		BitmapCacheConfig(),
		{Name: "min", SizeBytes: 4, Ways: 1, BlockSize: 4},
		{Name: "min16", SizeBytes: 4 * 16, Ways: 16, BlockSize: 4},
	}
	for _, ways := range []uint64{1, 2, 4, 8, 16} {
		for _, sets := range []uint64{1, 3, 8, 12} {
			for _, block := range []uint64{64, 48} {
				cfgs = append(cfgs, Config{Name: "g", SizeBytes: ways * sets * block, Ways: int(ways), BlockSize: block})
			}
		}
	}
	return cfgs
}

// TestCacheMatchesReference pins the equivalence on fixed seeds so the
// property is exercised on every `go test` run, not only under fuzzing.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range equivalenceGeometries() {
		for seed := int64(0); seed < 6; seed++ {
			driveBoth(t, seed, cfg, 3000)
		}
	}
}

// FuzzCacheEquivalence drives the Cache and the retained stamp-based
// reference with identical seeded operation streams over fuzzed
// geometries; any divergence is a bug in the recency-word rewrite. Wired
// into `make fuzz` and `make audit`.
func FuzzCacheEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(64), uint8(64), uint16(2000))
	f.Add(int64(7), uint8(16), uint16(3), uint8(48), uint16(2000))
	f.Add(int64(42), uint8(1), uint16(0), uint8(4), uint16(500))
	f.Fuzz(func(t *testing.T, seed int64, ways uint8, sets uint16, block uint8, nops uint16) {
		w := uint64(ways%maxWays) + 1
		n := uint64(sets%512) + 1
		b := uint64(block) + 1
		if b*n < 4 {
			t.Skip()
		}
		if nops > 4000 {
			nops = 4000
		}
		driveBoth(t, seed, Config{Name: "fuzz", SizeBytes: w * n * b, Ways: int(w), BlockSize: b}, int(nops))
	})
}
