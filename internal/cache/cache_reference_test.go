package cache

import "fmt"

// referenceCache is the original line-array Cache with per-line LRU
// timestamps and an argmin victim scan, kept verbatim (types renamed) as
// the executable specification the packed-key, recency-word Cache must
// match access for access. Test-only.
type referenceCache struct {
	cfg   Config
	sets  [][]refLine
	nsets uint64
	tick  uint64

	pow2       bool
	blockShift uint
	setShift   uint
	setMask    uint64

	Stats Stats
}

type refLine struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

func newReferenceCache(cfg Config) *referenceCache {
	if cfg.BlockSize == 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	blocks := cfg.SizeBytes / cfg.BlockSize
	nsets := blocks / uint64(cfg.Ways)
	if nsets == 0 || blocks%uint64(cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: %d blocks not divisible into %d ways", cfg.Name, blocks, cfg.Ways))
	}
	sets := make([][]refLine, nsets)
	backing := make([]refLine, nsets*uint64(cfg.Ways))
	for i := range sets {
		sets[i] = backing[uint64(i)*uint64(cfg.Ways) : (uint64(i)+1)*uint64(cfg.Ways)]
	}
	c := &referenceCache{cfg: cfg, sets: sets, nsets: nsets}
	bs, okB := log2(cfg.BlockSize)
	ss, okS := log2(nsets)
	if okB && okS {
		c.pow2, c.blockShift, c.setShift, c.setMask = true, bs, ss, nsets-1
	}
	return c
}

func (c *referenceCache) index(addr uint64) (set uint64, tag uint64) {
	if c.pow2 {
		blk := addr >> c.blockShift
		return blk & c.setMask, blk >> c.setShift
	}
	blk := addr / c.cfg.BlockSize
	return blk % c.nsets, blk / c.nsets
}

func (c *referenceCache) blockAddr(set, tag uint64) uint64 {
	if c.pow2 {
		return (tag<<c.setShift | set) << c.blockShift
	}
	return (tag*c.nsets + set) * c.cfg.BlockSize
}

func (c *referenceCache) Access(addr uint64, write bool) Result {
	set, tag := c.index(addr)
	lines := c.sets[set]
	c.tick++

	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.tick
			if write {
				lines[i].dirty = true
			}
			c.Stats.Hits++
			return Result{Hit: true}
		}
	}
	c.Stats.Misses++

	// Choose a victim: first invalid way, else least recently used.
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	res := Result{}
	if lines[victim].valid && lines[victim].dirty {
		res.Writeback = true
		res.WritebackAddr = c.blockAddr(set, lines[victim].tag)
		c.Stats.Writebacks++
	}
	lines[victim] = refLine{valid: true, dirty: write, tag: tag, lru: c.tick}
	return res
}

func (c *referenceCache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *referenceCache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			dirty = lines[i].dirty
			lines[i] = refLine{}
			return true, dirty
		}
	}
	return false, false
}

func (c *referenceCache) Flush() (dirty int) {
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid && c.sets[s][i].dirty {
				dirty++
			}
			c.sets[s][i] = refLine{}
		}
	}
	c.Stats.Flushes++
	return dirty
}

func (c *referenceCache) AppendDirtyLines(dst []uint64) []uint64 {
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid && c.sets[s][i].dirty {
				dst = append(dst, c.blockAddr(uint64(s), c.sets[s][i].tag))
			}
		}
	}
	return dst
}

// referenceHierarchy is the original single-pass Hierarchy.Access, kept
// verbatim (types renamed) as the executable specification the split
// WalkPrivate/WalkShared walk must match access for access. Test-only.
type referenceHierarchy struct {
	Levels []*Cache
	wb     []uint64
}

func (h *referenceHierarchy) Access(addr uint64, write bool) LookupResult {
	res := LookupResult{Writebacks: h.wb[:0]}
	for i, c := range h.Levels {
		res.Latency += c.cfg.HitLatency
		r := c.Access(addr, write && i == 0)
		if r.Writeback {
			h.writeback(i+1, r.WritebackAddr, &res)
		}
		if r.Hit {
			res.Level = i
			h.wb = res.Writebacks[:0]
			return res
		}
	}
	res.Level = len(h.Levels)
	res.MemoryAccess = true
	h.wb = res.Writebacks[:0]
	return res
}

func (h *referenceHierarchy) writeback(i int, addr uint64, res *LookupResult) {
	for ; i < len(h.Levels); i++ {
		r := h.Levels[i].Access(addr, true)
		if !r.Writeback {
			return
		}
		addr = r.WritebackAddr
	}
	res.Writebacks = append(res.Writebacks, addr)
}
