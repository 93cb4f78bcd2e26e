// Package cpu models the host out-of-order core from Table 2 of the
// Charon paper: a 2.67 GHz Westmere-class core with a 36-entry instruction
// window, 128-entry ROB, 4-way issue, and a bounded number of MSHRs.
//
// The model is an interval/reservation model in the style of zsim's OoO
// core (the simulator the paper itself extends): each GC primitive is
// expanded into a stream of micro-operations (loads, stores, compute) with
// explicit dependencies, and the core computes per-op completion times
// subject to
//
//   - front-end/issue bandwidth (IssueWidth µops per cycle),
//   - the instruction window (an op cannot enter the window until the op
//     WindowSize slots earlier has retired, and retirement is in order),
//   - data dependencies (an op waits for the op it depends on), and
//   - bounded memory-level parallelism (at most MSHRs outstanding misses).
//
// This is exactly the mechanism the paper blames for GC's sub-0.5 IPC:
// dependent loads clog the window, and the window/MSHR limits cap MLP far
// below what the memory system could sustain.
package cpu

import (
	"fmt"

	"charonsim/internal/cache"
	"charonsim/internal/memsys"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
)

// OpKind classifies a micro-operation.
type OpKind uint8

const (
	// OpRead is a data load.
	OpRead OpKind = iota
	// OpWrite is a data store.
	OpWrite
	// OpCompute is a block of ALU work with no memory access.
	OpCompute
)

// NoDep marks an op without a data dependency.
const NoDep int32 = -1

// Op is one micro-operation of a primitive's execution.
type Op struct {
	Kind OpKind
	Addr uint64
	Size uint32
	// Dep is the index (within the same stream) of the op whose result
	// this op consumes, or NoDep.
	Dep int32
	// Work is the number of dynamic instructions attributed to this op
	// (charged against issue bandwidth). Zero means one instruction.
	Work uint32
}

// Config holds the core parameters.
type Config struct {
	ClockPeriod sim.Time
	WindowSize  int
	IssueWidth  int
	MSHRs       int
	// PrefetchLead is how far ahead of demand the L2 stream prefetcher
	// runs: a read recognized as part of a sequential stream completes
	// this much earlier than its memory access would (never earlier than
	// an L2 hit), and bypasses the MSHR limit — hardware prefetchers have
	// their own trackers. Zero disables prefetching.
	PrefetchLead sim.Time
}

// DefaultConfig returns Table 2's host core: 2.67 GHz, 36-entry window,
// 4-way issue. Table 2 does not list MSHRs; 10 per core matches Westmere's
// L1 fill buffers, and the stream prefetcher covers ~100 ns of lead.
func DefaultConfig() Config {
	return Config{ClockPeriod: 375 * sim.Picosecond, WindowSize: 36, IssueWidth: 4, MSHRs: 10,
		PrefetchLead: 100 * sim.Nanosecond}
}

// MemBackend is the main-memory system behind the cache hierarchy: either
// dram.DDR4 or the HMC host path.
type MemBackend interface {
	AccessAt(start sim.Time, kind memsys.Kind, addr uint64, size uint32) sim.Time
}

// Stats accumulates per-core execution statistics.
type Stats struct {
	Ops          uint64
	Instructions uint64
	MemOps       uint64
	MemAccesses  uint64 // line-granularity accesses after splitting
	CacheHits    uint64
	CacheMisses  uint64
	Prefetches   uint64 // stream-prefetched misses
	Busy         sim.Time

	// WindowStalls counts ops that waited for the in-order retirement of
	// the op WindowSize slots earlier; WindowStallTime is the summed wait.
	WindowStalls    uint64
	WindowStallTime sim.Time
	// MSHRStalls counts misses that waited for a free MSHR;
	// MSHRStallTime is the summed wait before issue.
	MSHRStalls    uint64
	MSHRStallTime sim.Time
	// MaxInflight is the high-water mark of outstanding misses.
	MaxInflight int

	// Mem counts the requests this core issued to the memory backend
	// (post-cache: demand misses, prefetches, writebacks, flushes). This is
	// the requester side of the byte-conservation invariant — it must equal
	// the traffic the DRAM controllers serve on behalf of this core.
	Mem memsys.Stats
}

// IPC returns instructions per cycle over the busy period.
func (s Stats) IPC(clock sim.Time) float64 {
	if s.Busy == 0 || clock == 0 {
		return 0
	}
	return float64(s.Instructions) / (float64(s.Busy) / float64(clock))
}

// Core is one host core with a private L1/L2 (and a shared L3 owned by the
// containing Host). Cores are driven by reservation: ExecOps may run ahead
// of the other threads' clocks; the exec layer interleaves threads at
// primitive granularity to keep contention realistic.
type Core struct {
	cfg  Config
	hier *cache.Hierarchy
	mem  MemBackend

	cursor     sim.Time   // front-end clock
	retireRing []sim.Time // retire times of the last WindowSize ops
	retireIdx  int
	lastRetire sim.Time
	mshr       sim.Slots // completion times of outstanding misses

	// Stream state: completion times of recent ops, indexed by absolute
	// stream position, so dependencies resolve across ExecBatch calls.
	ring [streamRing]sim.Time
	pos  int

	// Prefetcher stream table: last miss line per tracked stream.
	streams   [4]uint64
	streamIdx int

	// dirty is reusable scratch for FlushCaches' per-level dirty lines.
	dirty []uint64

	Stats Stats
}

// streamRing bounds how far back a dependency may reach across batches;
// primitive expansions only reference ops a few positions back.
const streamRing = 512

// NewCore builds a core with its own hierarchy (levels may be shared: the
// Host wires the same L3 into every core's hierarchy).
func NewCore(cfg Config, hier *cache.Hierarchy, mem MemBackend) *Core {
	return &Core{cfg: cfg, hier: hier, mem: mem, retireRing: make([]sim.Time, cfg.WindowSize),
		mshr: sim.NewSlots(cfg.MSHRs)}
}

// Hierarchy returns the core's cache hierarchy.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Cursor returns the core's local front-end clock.
func (c *Core) Cursor() sim.Time { return c.cursor }

// SetCursor fast-forwards the core's local clock (e.g. to the start of a
// GC pause).
func (c *Core) SetCursor(t sim.Time) {
	if t > c.cursor {
		c.cursor = t
	}
}

// mshrAccess issues a 64 B miss to memory no earlier than ready, once one
// of the cfg.MSHRs slots is free, and returns its completion.
func (c *Core) mshrAccess(ready sim.Time, kind memsys.Kind, addr uint64) sim.Time {
	start := c.mshr.Start(ready)
	if start > ready {
		c.Stats.MSHRStalls++
		c.Stats.MSHRStallTime += start - ready
	}
	done := c.mem.AccessAt(start, kind, addr, 64)
	c.mshr.Add(done)
	if n := c.mshr.Len(); n > c.Stats.MaxInflight {
		c.Stats.MaxInflight = n
	}
	return done
}

// ExecOps executes one primitive's op stream starting no earlier than
// start, returning the time the last op retires. State (caches, window,
// MSHRs, front-end clock) persists across calls: consecutive calls model a
// single continuous thread. Op dependencies are indices within ops.
func (c *Core) ExecOps(start sim.Time, ops []Op) sim.Time {
	return c.ExecBatch(start, ops, c.pos)
}

// StreamPos returns the core's absolute instruction-stream position.
func (c *Core) StreamPos() int { return c.pos }

// span returns the byte range [addr, end) a memory op touches. Its lines
// are walked from addr, then from each following 64 B boundary below end.
func (op *Op) span() (addr, end uint64) {
	size := op.Size
	if size == 0 {
		size = 8
	}
	return op.Addr, op.Addr + uint64(size)
}

// nextLine returns the 64 B boundary after a.
func nextLine(a uint64) uint64 { return (a | 63) + 1 }

// WalkPrivate walks every line of ops' memory accesses through the L1
// and L2 of h, a core's hierarchy, in the order ExecWalked times them, and
// appends the outcomes to dst. It touches only the private levels, and
// not the Core, so it may run on another goroutine ahead of the
// ExecWalked calls that consume its outcomes, provided nothing else walks
// the core's private levels meanwhile.
func WalkPrivate(h *cache.Hierarchy, ops []Op, dst []cache.Private) []cache.Private {
	for i := range ops {
		op := &ops[i]
		if op.Kind == OpCompute {
			continue
		}
		for a, end := op.span(); a < end; a = nextLine(a) {
			dst = append(dst, h.WalkPrivate(a, op.Kind == OpWrite))
		}
	}
	return dst
}

// ExecBatch executes a batch of ops whose Dep fields are relative to
// stream position depBase (so a long primitive can be executed in several
// batches, interleaving with other cores' resource reservations, while
// dependencies still resolve across batch boundaries).
func (c *Core) ExecBatch(start sim.Time, ops []Op, depBase int) sim.Time {
	finish, _ := c.exec(start, ops, depBase, nil, false)
	return finish
}

// ExecWalked is ExecBatch for ops whose lines WalkPrivate already walked
// through the core's private levels: priv holds those outcomes from the
// batch's first line on. It returns the finish time and how many outcomes
// the batch used.
func (c *Core) ExecWalked(start sim.Time, ops []Op, depBase int, priv []cache.Private) (sim.Time, int) {
	return c.exec(start, ops, depBase, priv, true)
}

// exec times a batch. Each memory op's lines take their private-level
// outcome from priv when walked is set, and walk L1/L2 inline otherwise.
func (c *Core) exec(start sim.Time, ops []Op, depBase int, priv []cache.Private, walked bool) (sim.Time, int) {
	if start > c.cursor {
		c.cursor = start
	}
	startBusy := c.cursor
	used := 0

	for i := range ops {
		op := &ops[i]
		// Front-end: charge issue bandwidth.
		work := op.Work
		if work == 0 {
			work = 1
		}
		c.Stats.Instructions += uint64(work)
		cycles := (uint64(work) + uint64(c.cfg.IssueWidth) - 1) / uint64(c.cfg.IssueWidth)
		c.cursor += sim.Time(cycles) * c.cfg.ClockPeriod

		// Window: the op WindowSize slots earlier must have retired.
		if old := c.retireRing[c.retireIdx]; old > c.cursor {
			c.Stats.WindowStalls++
			c.Stats.WindowStallTime += old - c.cursor
			c.cursor = old
		}

		ready := c.cursor
		if op.Dep >= 0 {
			abs := depBase + int(op.Dep)
			if abs < c.pos && c.pos-abs <= streamRing {
				if d := c.ring[abs%streamRing]; d > ready {
					ready = d
				}
			}
		}

		done := ready
		if op.Kind != OpCompute {
			c.Stats.MemOps++
			write := op.Kind == OpWrite
			for a, end := op.span(); a < end; a = nextLine(a) {
				var p cache.Private
				if walked {
					p = priv[used]
					used++
				} else {
					p = c.hier.WalkPrivate(a, write)
				}
				if d := c.line(ready, a, write, p); d > done {
					done = d
				}
			}
		}

		c.ring[c.pos%streamRing] = done
		c.pos++
		// In-order retirement.
		if done < c.lastRetire {
			done = c.lastRetire
		}
		c.lastRetire = done
		c.retireRing[c.retireIdx] = done
		c.retireIdx = (c.retireIdx + 1) % c.cfg.WindowSize
		c.Stats.Ops++
	}

	finish := c.cursor
	if c.lastRetire > finish {
		finish = c.lastRetire
	}
	c.Stats.Busy += finish - startBusy
	return finish, used
}

// line times one 64 B line of a memory op issued at ready, whose walk
// through the private levels gave p: the L3 lookup, then on a miss a
// stream-prefetched or MSHR-bounded fill, and the writebacks of dirty
// victims. It returns the time the line's data is available.
func (c *Core) line(ready sim.Time, a uint64, write bool, p cache.Private) sim.Time {
	kind := memsys.Read
	if write {
		kind = memsys.Write
	}
	c.Stats.MemAccesses++
	latency, memory, writebacks := c.hier.WalkShared(a, p)
	var d sim.Time
	if memory {
		c.Stats.CacheMisses++
		line := a &^ 63
		stream := false
		for i := range c.streams {
			if line == c.streams[i]+64 {
				c.streams[i] = line
				stream = true
				break
			}
		}
		if !stream {
			c.streamIdx = (c.streamIdx + 1) % len(c.streams)
			c.streams[c.streamIdx] = line
		}
		c.Stats.Mem.Record(&memsys.Request{Kind: kind, Size: 64})
		if stream && !write && c.cfg.PrefetchLead > 0 {
			// Prefetched: the access was issued PrefetchLead early by the
			// stream prefetcher (own trackers, no MSHR), so the demand
			// load sees at most the residual latency. Bandwidth is still
			// charged.
			c.Stats.Prefetches++
			memDone := c.mem.AccessAt(ready, kind, a, 64)
			d = ready + latency
			if memDone > c.cfg.PrefetchLead && memDone-c.cfg.PrefetchLead > d {
				d = memDone - c.cfg.PrefetchLead
			}
		} else {
			d = c.mshrAccess(ready+latency, kind, a)
		}
	} else {
		c.Stats.CacheHits++
		d = ready + latency
	}
	// Dirty victims write back asynchronously (no stall), but the traffic
	// is charged to the memory system.
	for _, wb := range writebacks {
		c.Stats.Mem.Record(&memsys.Request{Kind: memsys.Write, Size: 64})
		c.mem.AccessAt(d, memsys.Write, wb, 64)
	}
	return d
}

// FlushCaches models the GC-start bulk cache flush (Section 4.6): all
// levels are emptied and each dirty line is written back through the
// memory system starting at t. Returns the time the flush traffic drains.
func (c *Core) FlushCaches(t sim.Time) sim.Time {
	last := t
	for _, level := range c.hier.Levels {
		c.dirty = level.AppendDirtyLines(c.dirty[:0])
		for _, addr := range c.dirty {
			c.Stats.Mem.Record(&memsys.Request{Kind: memsys.Write, Size: 64})
			if d := c.mem.AccessAt(t, memsys.Write, addr, 64); d > last {
				last = d
			}
		}
		level.Flush()
	}
	return last
}

// Host is the 8-core processor: per-core L1+L2 in front of a shared L3.
type Host struct {
	Cores []*Core
	L3    *cache.Cache
}

// NewHost builds Table 2's 8-core host over the given memory backend.
func NewHost(ncores int, cfg Config, mem MemBackend) *Host {
	return NewHostWithCaches(ncores, cfg, mem, cache.L1DConfig(), cache.L2Config(), cache.L3Config())
}

// NewHostWithCaches builds a host with explicit cache geometries (the
// experiment platforms use capacity-scaled caches to match scaled heaps).
func NewHostWithCaches(ncores int, cfg Config, mem MemBackend, l1, l2, l3cfg cache.Config) *Host {
	l3 := cache.New(l3cfg)
	h := &Host{L3: l3}
	for i := 0; i < ncores; i++ {
		hier := &cache.Hierarchy{Levels: []*cache.Cache{
			cache.New(l1),
			cache.New(l2),
			l3,
		}}
		h.Cores = append(h.Cores, NewCore(cfg, hier, mem))
	}
	return h
}

// Stats sums per-core statistics.
func (h *Host) Stats() Stats {
	var s Stats
	for _, c := range h.Cores {
		s.Ops += c.Stats.Ops
		s.Instructions += c.Stats.Instructions
		s.MemOps += c.Stats.MemOps
		s.MemAccesses += c.Stats.MemAccesses
		s.CacheHits += c.Stats.CacheHits
		s.CacheMisses += c.Stats.CacheMisses
		s.Prefetches += c.Stats.Prefetches
		s.Busy += c.Stats.Busy
		s.WindowStalls += c.Stats.WindowStalls
		s.WindowStallTime += c.Stats.WindowStallTime
		s.MSHRStalls += c.Stats.MSHRStalls
		s.MSHRStallTime += c.Stats.MSHRStallTime
		if c.Stats.MaxInflight > s.MaxInflight {
			s.MaxInflight = c.Stats.MaxInflight
		}
		s.Mem.Add(c.Stats.Mem)
	}
	return s
}

// Collect publishes per-core and aggregate counters into reg under
// prefix (e.g. "ddr4/cpu"). No-op when reg is disabled.
func (h *Host) Collect(reg *metrics.Registry, prefix string) {
	if !reg.Enabled() {
		return
	}
	for i, c := range h.Cores {
		p := fmt.Sprintf("%s/core%d", prefix, i)
		s := &c.Stats
		reg.AddUint(p+"/ops", s.Ops)
		reg.AddUint(p+"/instructions", s.Instructions)
		reg.AddUint(p+"/mem_accesses", s.MemAccesses)
		reg.AddUint(p+"/cache_hits", s.CacheHits)
		reg.AddUint(p+"/cache_misses", s.CacheMisses)
		reg.AddUint(p+"/prefetches", s.Prefetches)
		reg.AddUint(p+"/busy_ps", uint64(s.Busy))
		reg.AddUint(p+"/window_stalls", s.WindowStalls)
		reg.AddUint(p+"/window_stall_ps", uint64(s.WindowStallTime))
		reg.AddUint(p+"/mshr_stalls", s.MSHRStalls)
		reg.AddUint(p+"/mshr_stall_ps", uint64(s.MSHRStallTime))
		reg.SetMax(p+"/max_inflight_misses", float64(s.MaxInflight))
		reg.AddUint(p+"/mem_read_bytes", s.Mem.ReadBytes)
		reg.AddUint(p+"/mem_write_bytes", s.Mem.WriteBytes)
		c.hier.Levels[0].Collect(reg, p+"/l1d")
		c.hier.Levels[1].Collect(reg, p+"/l2")
	}
	h.L3.Collect(reg, prefix+"/l3")
}
