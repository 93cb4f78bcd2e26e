// Package cache implements a set-associative, write-back, write-allocate
// cache model with true-LRU replacement. It is used both for the host's
// L1/L2/L3 hierarchy (Table 2) and for Charon's dedicated bitmap cache
// (8 KB, 8-way, 32 B blocks, Section 4.5). The model tracks tags and dirty
// bits only; data lives in the functional heap arena.
package cache

import (
	"fmt"
	"math/bits"

	"charonsim/internal/metrics"
	"charonsim/internal/sim"
)

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  uint64
	Ways       int
	BlockSize  uint64
	HitLatency sim.Time
}

// L1DConfig returns Table 2's L1 data cache: 32 KB, 8-way, 4 cycles at 2.67 GHz.
func L1DConfig() Config {
	return Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, BlockSize: 64, HitLatency: 4 * 375 * sim.Picosecond}
}

// L2Config returns Table 2's L2: 256 KB, 8-way, 12 cycles.
func L2Config() Config {
	return Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, BlockSize: 64, HitLatency: 12 * 375 * sim.Picosecond}
}

// L3Config returns Table 2's shared L3: 8 MB, 16-way, 28 cycles.
func L3Config() Config {
	return Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, BlockSize: 64, HitLatency: 28 * 375 * sim.Picosecond}
}

// ScaledL1DConfig..ScaledL3Config are capacity-scaled variants of the host
// hierarchy used by the experiment platforms: the reproduction's heaps are
// scaled down ~512x from the paper's 4-12 GB, so full-size caches would
// hold metadata (mark bitmaps, card tables) that is emphatically
// *uncacheable* at paper scale. Scaling capacities ~32x (keeping latencies
// and associativities) restores the paper's cache:heap proportions within
// a small factor (see DESIGN.md).

// ScaledL1DConfig returns the scaled L1D: 4 KB.
func ScaledL1DConfig() Config {
	return Config{Name: "L1D", SizeBytes: 4 << 10, Ways: 8, BlockSize: 64, HitLatency: 4 * 375 * sim.Picosecond}
}

// ScaledL2Config returns the scaled L2: 16 KB.
func ScaledL2Config() Config {
	return Config{Name: "L2", SizeBytes: 16 << 10, Ways: 8, BlockSize: 64, HitLatency: 12 * 375 * sim.Picosecond}
}

// ScaledL3Config returns the scaled shared L3: 256 KB.
func ScaledL3Config() Config {
	return Config{Name: "L3", SizeBytes: 256 << 10, Ways: 16, BlockSize: 64, HitLatency: 28 * 375 * sim.Picosecond}
}

// BitmapCacheConfig returns Charon's bitmap cache from Section 4.5:
// 8 KB, 8-way, 32 B blocks. Hit latency of one HMC logic-layer cycle.
func BitmapCacheConfig() Config {
	return Config{Name: "BitmapCache", SizeBytes: 8 << 10, Ways: 8, BlockSize: 32, HitLatency: 1600 * sim.Picosecond}
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	Flushes    uint64
}

// HitRate returns hits/(hits+misses), or 0 when idle.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Result reports the outcome of one access.
type Result struct {
	Hit bool
	// Eviction of a dirty line that must be written back to memory.
	Writeback     bool
	WritebackAddr uint64
}

// Cache is a single cache level. Not safe for concurrent use: host replay
// may walk a core's private levels on another goroutine, but never lets
// two goroutines touch one Cache at once.
//
// Replacement is exact true LRU in constant work per access. Each way is
// one packed key, and each set keeps a valid mask and a recency word, so
// neither a hit nor a miss scans the set for a least-recent line.
type Cache struct {
	cfg   Config
	ways  uint64
	nsets uint64

	// keys holds one word per way, set-major: tag<<2 | keyValid | keyDirty,
	// so an invalid way is 0 and a hit is one compare per way.
	keys []uint64
	sets []setState
	// full is the valid mask of a set with every way filled; top is the
	// bit offset of the least-recent nibble of a recency word.
	full uint16
	top  uint

	// Shift/mask fast path for the index math: every standard geometry
	// (Table 2, the scaled variants, the bitmap cache) has power-of-two
	// block size and set count, and the divisions in index() otherwise
	// dominate the access cost. Division fallback when not pow2.
	pow2       bool
	blockShift uint
	setShift   uint
	setMask    uint64

	Stats Stats
}

// setState is one set's replacement state. valid has bit w set when way
// w holds a line. recency lists the way indices as 4-bit nibbles, most
// recently used at bit 0, so the least recently used way is the top
// nibble; nibbles above the set's ways stay zero.
type setState struct {
	recency uint64
	valid   uint16
}

const (
	keyDirty = 1
	keyValid = 2

	// maxWays is the most ways one 64-bit recency word can order.
	maxWays = 16
	// nibbles has a one in the low bit of every nibble.
	nibbles = 0x1111111111111111
)

// toFront returns recency with way's nibble moved to bit 0 and the
// nibbles it passed shifted up one place. The nibble is found without a
// loop: XOR zeroes the nibble equal to way, and the borrow trick flags the
// lowest zero nibble exactly.
func toFront(recency uint64, way uint64) uint64 {
	x := recency ^ nibbles*way
	zero := (x - nibbles) &^ x & (nibbles << 3)
	s := uint(bits.TrailingZeros64(zero)) &^ 3
	return recency&(^uint64(0)<<(s+4)) | (recency&(1<<s-1))<<4 | way
}

// log2 returns the exponent of a power of two, or ok=false.
func log2(v uint64) (uint, bool) {
	if v == 0 || v&(v-1) != 0 {
		return 0, false
	}
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s, true
}

// New builds a cache from cfg. Panics on a geometry that doesn't divide
// evenly, has more ways than a recency word orders, or whose tags would
// lose bits in the packed key, since each is a configuration bug.
func New(cfg Config) *Cache {
	if cfg.BlockSize == 0 || cfg.Ways <= 0 || cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	blocks := cfg.SizeBytes / cfg.BlockSize
	ways := uint64(cfg.Ways)
	nsets := blocks / ways
	if nsets == 0 || blocks%ways != 0 {
		panic(fmt.Sprintf("cache %s: %d blocks not divisible into %d ways", cfg.Name, blocks, cfg.Ways))
	}
	// A tag is addr/(BlockSize*nsets); below 4 bytes per way column the
	// top two tag bits would be shifted out of the key.
	if cfg.BlockSize*nsets < 4 {
		panic(fmt.Sprintf("cache %s: %d sets of %d-byte blocks leave tags too wide for a packed key", cfg.Name, nsets, cfg.BlockSize))
	}
	c := &Cache{
		cfg:   cfg,
		ways:  ways,
		nsets: nsets,
		keys:  make([]uint64, nsets*ways),
		sets:  make([]setState, nsets),
		full:  uint16(1<<ways - 1),
		top:   uint(4 * (ways - 1)),
	}
	// Any order of the way indices will do; start with way w at nibble w.
	initial := uint64(0xFEDCBA9876543210) & (^uint64(0) >> (64 - 4*ways))
	for i := range c.sets {
		c.sets[i].recency = initial
	}
	bs, okB := log2(cfg.BlockSize)
	ss, okS := log2(nsets)
	if okB && okS {
		c.pow2, c.blockShift, c.setShift, c.setMask = true, bs, ss, nsets-1
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Collect publishes the cache's event counters into reg under prefix.
// No-op when reg is disabled.
func (c *Cache) Collect(reg *metrics.Registry, prefix string) {
	if !reg.Enabled() {
		return
	}
	reg.AddUint(prefix+"/hits", c.Stats.Hits)
	reg.AddUint(prefix+"/misses", c.Stats.Misses)
	reg.AddUint(prefix+"/writebacks", c.Stats.Writebacks)
	reg.AddUint(prefix+"/flushes", c.Stats.Flushes)
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	if c.pow2 {
		blk := addr >> c.blockShift
		return blk & c.setMask, blk >> c.setShift
	}
	blk := addr / c.cfg.BlockSize
	return blk % c.nsets, blk / c.nsets
}

// blockAddr reconstructs the base address of a cached line.
func (c *Cache) blockAddr(set, tag uint64) uint64 {
	if c.pow2 {
		return (tag<<c.setShift | set) << c.blockShift
	}
	return (tag*c.nsets + set) * c.cfg.BlockSize
}

// setKeys returns the keys of set's ways.
func (c *Cache) setKeys(set uint64) []uint64 {
	base := set * c.ways
	return c.keys[base : base+c.ways : base+c.ways]
}

// find returns the index of the valid way in keys holding tag, or -1.
func find(keys []uint64, tag uint64) int {
	want := tag<<2 | keyValid | keyDirty
	for i, k := range keys {
		if k|keyDirty == want {
			return i
		}
	}
	return -1
}

// Access looks up addr, allocating on miss (write-allocate) and marking
// dirty on writes. It touches exactly one block; callers split larger
// accesses at the block size. The victim is the first invalid way, else
// the least recently used one.
func (c *Cache) Access(addr uint64, write bool) Result {
	set, tag := c.index(addr)
	keys := c.setKeys(set)
	st := &c.sets[set]
	if i := find(keys, tag); i >= 0 {
		if write {
			keys[i] |= keyDirty
		}
		st.recency = toFront(st.recency, uint64(i))
		c.Stats.Hits++
		return Result{Hit: true}
	}
	c.Stats.Misses++

	res := Result{}
	var victim uint64
	if st.valid != c.full {
		victim = uint64(bits.TrailingZeros16(^st.valid))
		st.valid |= 1 << victim
	} else {
		// Every way of a full set was filled after it was last emptied,
		// and each fill moved it to the front, so the top nibble is the
		// least recently used way.
		victim = st.recency >> c.top
		if k := keys[victim]; k&keyDirty != 0 {
			res.Writeback = true
			res.WritebackAddr = c.blockAddr(set, k>>2)
			c.Stats.Writebacks++
		}
	}
	key := tag<<2 | keyValid
	if write {
		key |= keyDirty
	}
	keys[victim] = key
	st.recency = toFront(st.recency, victim)
	return res
}

// Contains reports whether addr's block is cached (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	return find(c.setKeys(set), tag) >= 0
}

// Invalidate drops addr's block if present, returning whether it was dirty
// (the caller models the resulting writeback). This is what a clflush from
// a Charon processing unit does to the host hierarchy (Section 4.1).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	keys := c.setKeys(set)
	i := find(keys, tag)
	if i < 0 {
		return false, false
	}
	dirty = keys[i]&keyDirty != 0
	keys[i] = 0
	c.sets[set].valid &^= 1 << uint(i)
	return true, dirty
}

// Flush empties the whole cache and returns the number of dirty lines that
// would be written back. Used for the GC-start bulk flush (Section 4.6:
// "flushing 24MB LLC takes only 300µs with 80GB/sec HMC bandwidth").
func (c *Cache) Flush() (dirty int) {
	for i, k := range c.keys {
		dirty += int(k & keyDirty)
		c.keys[i] = 0
	}
	for i := range c.sets {
		c.sets[i].valid = 0
	}
	c.Stats.Flushes++
	return dirty
}

// DirtyLines returns the addresses of all dirty blocks (for write-back
// traffic accounting without flushing).
func (c *Cache) DirtyLines() []uint64 { return c.AppendDirtyLines(nil) }

// AppendDirtyLines appends the addresses of all dirty blocks to dst, set by
// set and way by way within a set, and returns the extended slice, letting
// flush loops reuse one scratch buffer instead of allocating per flush.
func (c *Cache) AppendDirtyLines(dst []uint64) []uint64 {
	for set := uint64(0); set < c.nsets; set++ {
		for _, k := range c.setKeys(set) {
			if k&keyDirty != 0 {
				dst = append(dst, c.blockAddr(set, k>>2))
			}
		}
	}
	return dst
}

// Hierarchy chains cache levels in front of a memory latency model. It
// answers the question the CPU timing model asks: "how long until this
// load's data arrives, and how many memory requests does it generate?".
//
// Levels is L1, L2 and L3, in that order. L1 and L2 belong to one core;
// the L3 may be shared with other cores' hierarchies. An access is walked
// in two halves, WalkPrivate over L1/L2 and WalkShared over the L3, so a
// core's private half can run ahead of (and apart from) the shared one.
type Hierarchy struct {
	Levels []*Cache

	// wb is the reusable backing for LookupResult.Writebacks: memory
	// writebacks are rare (last-level dirty victims only) but the append
	// in the common Access path must not allocate per call.
	wb []uint64
}

// NewHostHierarchy builds Table 2's L1D/L2/L3 stack.
func NewHostHierarchy() *Hierarchy {
	return &Hierarchy{Levels: []*Cache{New(L1DConfig()), New(L2Config()), New(L3Config())}}
}

// LookupResult describes where an access hit.
type LookupResult struct {
	// Level is the index of the hitting level, or len(Levels) for memory.
	Level int
	// Latency is the cumulative lookup latency of the traversed levels.
	Latency sim.Time
	// MemoryAccess is true when main memory must be accessed.
	MemoryAccess bool
	// Writebacks lists dirty-victim addresses to write to memory.
	Writebacks []uint64
}

// Private is the outcome of an access's walk through L1 and L2. It has
// four word-sized fields so the compiler keeps it in registers: passed
// through memory, its fields are stored and reloaded at mismatched
// widths, which stalls store forwarding on every access.
type Private struct {
	// Latency is the summed hit latency of the private levels walked.
	Latency sim.Time
	// Victim0 and Victim1 are the dirty lines that fell out of L2, the
	// first Victims() of them in the order they fell. Each still has to
	// be installed in the L3.
	Victim0, Victim1 uint64
	// walk is the private level that hit (2: both missed) plus the victim
	// count times 4.
	walk uint8
}

// Level returns the private level that hit, or 2 when both missed.
func (p Private) Level() int { return int(p.walk & 3) }

// Miss reports whether every private level missed, so the access goes on
// to the L3 demand lookup.
func (p Private) Miss() bool { return p.walk&3 == 2 }

// Victims returns how many dirty lines fell out of L2.
func (p Private) Victims() int { return int(p.walk >> 2) }

// victim records a dirty line that fell out of L2.
func (p *Private) victim(addr uint64) {
	if p.Victims() == 0 {
		p.Victim0 = addr
	} else {
		p.Victim1 = addr
	}
	p.walk += 4
}

// WalkPrivate walks one block access through L1 and L2. Stores dirty the
// line only in L1; a dirty L1 victim is installed in L2. It touches L1
// and L2 only, never the L3 or the hierarchy's own scratch.
func (h *Hierarchy) WalkPrivate(addr uint64, write bool) Private {
	l1, l2 := h.Levels[0], h.Levels[1]
	p := Private{Latency: l1.cfg.HitLatency}
	r := l1.Access(addr, write)
	if r.Writeback {
		if v := l2.Access(r.WritebackAddr, true); v.Writeback {
			p.victim(v.WritebackAddr)
		}
	}
	if r.Hit {
		return p
	}
	p.Latency += l2.cfg.HitLatency
	p.walk++
	r = l2.Access(addr, false)
	if r.Writeback {
		p.victim(r.WritebackAddr)
	}
	if !r.Hit {
		p.walk++
	}
	return p
}

// WalkShared finishes the access p began: it installs p's L2 victims in
// the L3, then, when both private levels missed, looks addr up in the L3.
// It returns the access's total latency, whether it goes on to memory,
// and the memory writebacks of dirty L3 victims.
//
// The returned writebacks alias hierarchy-owned scratch and are valid
// until the next WalkShared call.
func (h *Hierarchy) WalkShared(addr uint64, p Private) (latency sim.Time, memory bool, writebacks []uint64) {
	l3 := h.Levels[2]
	latency, writebacks = p.Latency, h.wb[:0]
	if n := p.Victims(); n > 0 {
		if r := l3.Access(p.Victim0, true); r.Writeback {
			writebacks = append(writebacks, r.WritebackAddr)
		}
		if n > 1 {
			if r := l3.Access(p.Victim1, true); r.Writeback {
				writebacks = append(writebacks, r.WritebackAddr)
			}
		}
	}
	if p.Miss() {
		latency += l3.cfg.HitLatency
		r := l3.Access(addr, false)
		if r.Writeback {
			writebacks = append(writebacks, r.WritebackAddr)
		}
		memory = !r.Hit
	}
	// Store the scratch back only when an append grew it: the Hierarchy's
	// other fields are read by the core's private walk, which may run on
	// another goroutine, and any store would steal their cache line.
	if cap(writebacks) != cap(h.wb) {
		h.wb = writebacks[:0]
	}
	return latency, memory, writebacks
}

// Access walks the hierarchy for one block access: WalkPrivate, then
// WalkShared. Dirty victims cascade one level down, and only L3 victims
// become memory writebacks.
//
// The returned Writebacks slice aliases hierarchy-owned scratch and is
// valid until the next Access call.
func (h *Hierarchy) Access(addr uint64, write bool) LookupResult {
	p := h.WalkPrivate(addr, write)
	latency, memory, wbs := h.WalkShared(addr, p)
	level := p.Level()
	if memory {
		level = len(h.Levels)
	}
	return LookupResult{Level: level, Latency: latency, MemoryAccess: memory, Writebacks: wbs}
}

// FlushAll flushes every level, returning total dirty lines.
func (h *Hierarchy) FlushAll() int {
	dirty := 0
	for _, c := range h.Levels {
		dirty += c.Flush()
	}
	return dirty
}

// Invalidate performs a clflush-style probe through every level, returning
// whether any level held the line dirty.
func (h *Hierarchy) Invalidate(addr uint64) (present, dirty bool) {
	for _, c := range h.Levels {
		p, d := c.Invalidate(addr)
		present = present || p
		dirty = dirty || d
	}
	return present, dirty
}
