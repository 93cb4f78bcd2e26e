// Package charon implements the paper's contribution: the near-memory GC
// accelerator placed on the logic layer of each HMC cube (Figure 5). It
// models, in reservation (timing) form:
//
//   - the host-Charon offload interface of Section 4.1: 48 B request
//     packets routed over the HMC links to the home cube, per-primitive
//     command queues, and 16/32 B response packets, with the host thread
//     blocked until the response returns;
//   - the Copy/Search unit (Section 4.2): streaming 256 B accesses issued
//     one per logic cycle, bounded by the MAI's 32 request-buffer entries;
//   - the Bitmap Count unit (Section 4.3): the optimized subtract+popcount
//     algorithm fed through the dedicated bitmap cache (8 KB, 8-way, 32 B
//     blocks, Section 4.5);
//   - the Scan&Push unit (Section 4.4): batched slot loads with dependent
//     header checks, stack pushes and metadata updates, always scheduled
//     on the central cube;
//   - unified vs distributed bitmap cache and TLB placement (Section 4.6),
//     the knob behind Figure 15's scalability comparison.
//
// Functional GC work is done by the collector; this package charges time
// and traffic for the offloaded work descriptors.
package charon

import (
	"charonsim/internal/cache"
	"charonsim/internal/fault"
	"charonsim/internal/hmc"
	"charonsim/internal/memsys"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
)

// The accelerator's fixed Table 2 sizes and clock. Config holds only
// what the ablations vary.
const (
	// BitmapCountPerCube is the number of Bitmap Count units per cube.
	BitmapCountPerCube = 2
	// ScanPushUnits is the number of Scan&Push units, all on the central
	// cube.
	ScanPushUnits = 8
	// LogicPeriod is the logic-layer clock (HMC tCK, 1.6 ns).
	LogicPeriod = 1600 * sim.Picosecond
)

// Config sizes the accelerator (Table 2 defaults): the knobs the
// ablations sweep, plus the two placement flags. The Bitmap Count and
// Scan&Push unit counts and the logic clock are the constants
// BitmapCountPerCube, ScanPushUnits and LogicPeriod.
type Config struct {
	// CopySearchPerCube is the number of Copy/Search units per cube (2).
	CopySearchPerCube int
	// MAIEntries is the per-cube request buffer depth (32).
	MAIEntries int
	// StreamGrain is the Copy/Search access granularity (HMC max: 256 B).
	StreamGrain uint64
	// BitmapCacheBytes sizes the bitmap cache (default 8 KB).
	BitmapCacheBytes uint64
	// Distributed selects per-cube bitmap cache and TLB slices instead of
	// unified structures on the central cube (Section 4.6).
	Distributed bool
	// CPUSide places the Charon units beside the host memory controller
	// instead of on the cube logic layers (Figure 16): offload transport
	// becomes an on-chip hop, but every memory access pays the full host
	// link path and misses the internal TSV bandwidth.
	CPUSide bool
}

// DefaultConfig returns Table 2's Charon configuration.
func DefaultConfig() Config {
	return Config{
		CopySearchPerCube: 2,
		MAIEntries:        32,
		StreamGrain:       256,
		BitmapCacheBytes:  8 << 10,
	}
}

// WithDefaults completes a partially specified configuration: every
// zero-valued unit count, depth, grain and size takes its Table 2
// value. The placement flags (Distributed, CPUSide) are kept as given.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.CopySearchPerCube == 0 {
		c.CopySearchPerCube = d.CopySearchPerCube
	}
	if c.MAIEntries == 0 {
		c.MAIEntries = d.MAIEntries
	}
	if c.StreamGrain == 0 {
		c.StreamGrain = d.StreamGrain
	}
	if c.BitmapCacheBytes == 0 {
		c.BitmapCacheBytes = d.BitmapCacheBytes
	}
	return c
}

// RefOp is the per-reference work of one Scan&Push invocation, in
// accelerator-neutral form (the exec layer converts the collector's
// recorded RefVisits).
type RefOp struct {
	Slot   uint64
	Target uint64 // 0 when the slot held null
	// CheckHeader: load the target's header (is_unmarked, MinorGC).
	CheckHeader bool
	// BitmapProbe: read the target's mark-bit state through the bitmap
	// cache (is_unmarked, MajorGC).
	BitmapProbe bool
	// Push: write the slot/object to the object stack.
	Push bool
	// UpdateSlot: rewrite the slot with a forwarding address.
	UpdateSlot bool
	// MarkBitmap: mark_obj read-modify-write on the mark bitmaps (MajorGC).
	MarkBitmap bool
	// DirtyCard: card-table byte write (old-to-young metadata update).
	DirtyCard bool
	CardAddr  uint64
}

// Stats counts accelerator activity.
type Stats struct {
	Offloads       [4]uint64 // by unit kind: copy, search, scanpush, bitmapcount
	RequestPackets uint64
	ResponseBytes  uint64
	TLBAccesses    uint64
	TLBRemote      uint64
	TLBWalks       uint64

	// Reissues counts offloads served away from their home cube because
	// the home pool was wholly failed (cross-cube failover).
	Reissues uint64

	// Mem counts the memory requests the units issued (every memAccess
	// call: streams, header loads, bitmap fills, writebacks, flushes).
	// This is the accelerator's requester side of the byte-conservation
	// invariant against the vault controllers' served traffic.
	Mem memsys.Stats
}

// Unit kinds for stats indexing.
const (
	KCopy = iota
	KSearch
	KScanPush
	KBitmapCount
)

// unit is one processing unit's reservation state. Health is fixed at
// construction: a failed unit never serves (defective or fenced off); a
// degraded unit serves every offload slower by the configured factor
// (thermal throttling on the logic layer).
type unit struct {
	freeAt sim.Time
	busy   sim.Time
	reqs   uint64 // offloads serviced by this unit

	failed   bool
	degraded bool
}

// Accelerator is the full Charon deployment over an HMC system.
type Accelerator struct {
	cfg Config
	sys *hmc.System

	copySearch  [][]unit // [cube][unit]
	bitmapCount [][]unit
	scanPush    []unit // central cube

	// mais are the cubes' Memory Access Interfaces: bounded request
	// buffers that limit in-flight memory accesses, like an MSHR file
	// (Section 4.1).
	mais []sim.Slots

	// Unified bitmap cache (on the central cube) or per-cube slices.
	bmCaches     []*cache.Cache
	bmCachePort  []*sim.Calendar // port occupancy per cache
	bmHitLatency sim.Time        // shared by every bitmap cache

	// TLB slices (one, or one per cube when Distributed) and the active
	// process id (PCID).
	tlbs []*TLB
	pcid uint16

	// rec, when set, receives one trace span per offload. Nil disables
	// recording (all Recorder methods are nil-safe).
	rec *metrics.Recorder

	// Reusable per-offload scratch (offloads on one accelerator are
	// serialized by the replay loop): pending write-buffer entries for
	// OffloadCopy, per-reference slot-load completion times for
	// OffloadScanPush.
	copyPend []pendWrite
	slotDone []sim.Time
	dirty    []uint64

	Stats Stats
}

// pendWrite is a write-buffered chunk of an in-flight COPY offload.
type pendWrite struct {
	off      uint64
	n        uint32
	readDone sim.Time
}

// New builds an accelerator over sys.
func New(cfg Config, sys *hmc.System) *Accelerator {
	return NewFault(cfg, sys, nil)
}

// NewFault is New with fault injection: per-unit failed/degraded health is
// drawn once here from the "charon/units" stream, in fixed pool order
// (copy/search by cube, bitmap-count by cube, then scan&push), so the
// health map is a pure function of the fault seed. FailAllUnits overrides
// the draws and fences off every unit. A nil injector is exactly New.
func NewFault(cfg Config, sys *hmc.System, inj *fault.Injector) *Accelerator {
	ncubes := sys.Mapper().Cubes
	a := &Accelerator{cfg: cfg, sys: sys}
	for c := 0; c < ncubes; c++ {
		a.copySearch = append(a.copySearch, make([]unit, cfg.CopySearchPerCube))
		a.bitmapCount = append(a.bitmapCount, make([]unit, BitmapCountPerCube))
		a.mais = append(a.mais, sim.NewSlots(cfg.MAIEntries))
	}
	a.scanPush = make([]unit, ScanPushUnits)
	ncaches := 1
	if cfg.Distributed {
		ncaches = ncubes
	}
	// TLB slices: Table 2 lists 32 entries per cube.
	ntlbs := 1
	if cfg.Distributed {
		ntlbs = ncubes
	}
	for i := 0; i < ntlbs; i++ {
		a.tlbs = append(a.tlbs, newTLB(32, sys.Mapper().CubeShift))
	}

	bmCfg := cache.BitmapCacheConfig()
	if cfg.BitmapCacheBytes != 0 {
		bmCfg.SizeBytes = cfg.BitmapCacheBytes
	}
	a.bmHitLatency = bmCfg.HitLatency
	for i := 0; i < ncaches; i++ {
		a.bmCaches = append(a.bmCaches, cache.New(bmCfg))
		a.bmCachePort = append(a.bmCachePort, sim.NewCalendar(50*sim.Nanosecond))
	}
	if inj != nil {
		fc := inj.Config()
		src := inj.Source("charon/units")
		seed := func(u *unit) {
			switch {
			case fc.FailAllUnits:
				u.failed = true
			case src.Hit(fc.UnitFailRate()):
				u.failed = true
			default:
				u.degraded = src.Hit(fc.UnitDegradeRate())
			}
		}
		for c := range a.copySearch {
			for i := range a.copySearch[c] {
				seed(&a.copySearch[c][i])
			}
		}
		for c := range a.bitmapCount {
			for i := range a.bitmapCount[c] {
				seed(&a.bitmapCount[c][i])
			}
		}
		for i := range a.scanPush {
			seed(&a.scanPush[i])
		}
	}
	return a
}

// Config returns the accelerator configuration.
func (a *Accelerator) Config() Config { return a.cfg }

// grain returns the configured streaming granularity.
func (a *Accelerator) grain() uint64 {
	if a.cfg.StreamGrain == 0 {
		return StreamGrain
	}
	return a.cfg.StreamGrain
}

// System returns the underlying HMC system.
func (a *Accelerator) System() *hmc.System { return a.sys }

// pickHealthy returns the index of the earliest-free non-failed unit, or
// -1 when the whole pool is failed. With every unit healthy this is the
// classic earliest-free pick (first index wins ties), so a fault-free
// accelerator schedules identically to one built without an injector.
func pickHealthy(us []unit) int {
	best := -1
	for i := range us {
		if us[i].failed {
			continue
		}
		if best < 0 || us[i].freeAt < us[best].freeAt {
			best = i
		}
	}
	return best
}

// pickCopySearch selects the serving (cube, unit) for a Copy/Search
// primitive homed on `home`, failing over to the nearest cube (in index
// order) whose pool still has a live unit when the home pool is wholly
// failed. Returns (-1, -1) when no Copy/Search unit is healthy anywhere —
// callers must guard with CanCopySearch.
func (a *Accelerator) pickCopySearch(home int) (int, int) {
	for d := 0; d < len(a.copySearch); d++ {
		c := (home + d) % len(a.copySearch)
		if u := pickHealthy(a.copySearch[c]); u >= 0 {
			if d != 0 {
				a.Stats.Reissues++
			}
			return c, u
		}
	}
	return -1, -1
}

// pickBitmapCount is pickCopySearch for the Bitmap Count pools.
func (a *Accelerator) pickBitmapCount(home int) (int, int) {
	for d := 0; d < len(a.bitmapCount); d++ {
		c := (home + d) % len(a.bitmapCount)
		if u := pickHealthy(a.bitmapCount[c]); u >= 0 {
			if d != 0 {
				a.Stats.Reissues++
			}
			return c, u
		}
	}
	return -1, -1
}

// CanCopySearch reports whether any Copy/Search unit on any cube is
// healthy (offloadable COPY and SEARCH primitives can still be served).
func (a *Accelerator) CanCopySearch() bool {
	for _, p := range a.copySearch {
		if pickHealthy(p) >= 0 {
			return true
		}
	}
	return false
}

// CanBitmapCount reports whether any Bitmap Count unit is healthy.
func (a *Accelerator) CanBitmapCount() bool {
	for _, p := range a.bitmapCount {
		if pickHealthy(p) >= 0 {
			return true
		}
	}
	return false
}

// CanScanPush reports whether any Scan&Push unit is healthy.
func (a *Accelerator) CanScanPush() bool { return pickHealthy(a.scanPush) >= 0 }

// AllUnitsFailed reports whether no unit of any kind can serve: the
// accelerator is present but dead, and the platform should run the host
// collector path wholesale.
func (a *Accelerator) AllUnitsFailed() bool {
	return !a.CanCopySearch() && !a.CanBitmapCount() && !a.CanScanPush()
}

// UnitHealth counts unit states across every pool.
func (a *Accelerator) UnitHealth() (failed, degraded, total int) {
	count := func(us []unit) {
		for i := range us {
			total++
			if us[i].failed {
				failed++
			} else if us[i].degraded {
				degraded++
			}
		}
	}
	for c := range a.copySearch {
		count(a.copySearch[c])
		count(a.bitmapCount[c])
	}
	count(a.scanPush)
	return
}

// finish settles a unit's reservation over [start, last]: degraded units
// stretch the service span by fault.DegradeFactor before freeing.
// Returns the (possibly stretched) completion time.
func (a *Accelerator) finish(u *unit, start, last sim.Time) sim.Time {
	if u.degraded {
		last = start + sim.Time(float64(last-start)*fault.DegradeFactor)
	}
	u.busy += last - start
	u.freeAt = last
	u.reqs++
	return last
}

// onChipHop is the command latency to a CPU-side unit (Figure 16): an
// on-chip queue traversal rather than a serial link.
const onChipHop = 5 * sim.Nanosecond

// transportRequest models the 48 B offload packet travelling from the host
// to the destination cube's command queue (or the on-chip hop to a
// CPU-side unit).
func (a *Accelerator) transportRequest(t sim.Time, cube int) sim.Time {
	a.Stats.RequestPackets++
	if a.cfg.CPUSide {
		return t + onChipHop
	}
	at := a.sys.HostLink().TransferAt(t, hmc.DirDown, hmc.OffloadReqBytes)
	if cube != 0 {
		at = a.sys.CubeLink(cube).TransferAt(at, hmc.DirDown, hmc.OffloadReqBytes)
	}
	return at
}

// transportResponse models the response packet back to the blocked host
// thread.
func (a *Accelerator) transportResponse(t sim.Time, cube int, bytes uint32) sim.Time {
	a.Stats.ResponseBytes += uint64(bytes)
	if a.cfg.CPUSide {
		return t + onChipHop
	}
	if cube != 0 {
		t = a.sys.CubeLink(cube).TransferAt(t, hmc.DirUp, bytes)
	}
	return a.sys.HostLink().TransferAt(t, hmc.DirUp, bytes)
}

// memAccess routes a unit's memory access: over the local TSVs (and cube
// links for remote addresses) for near-memory placement, or over the full
// host link path for CPU-side placement.
func (a *Accelerator) memAccess(start sim.Time, cube int, kind memsys.Kind, addr uint64, size uint32) sim.Time {
	a.Stats.Mem.Record(&memsys.Request{Kind: kind, Size: size})
	if a.cfg.CPUSide {
		return a.sys.HostAccessAt(start, kind, addr, size)
	}
	return a.sys.NearAccessAt(start, cube, kind, addr, size)
}

// maiAccess issues a memory access from `cube` no earlier than ready, once
// the cube's MAI has a free entry, and returns its completion.
func (a *Accelerator) maiAccess(ready sim.Time, cube int, kind memsys.Kind, addr uint64, size uint32) sim.Time {
	m := &a.mais[cube]
	done := a.memAccess(m.Start(ready), cube, kind, addr, size)
	m.Add(done)
	return done
}

// bmCacheFor returns the bitmap cache index serving a unit on `cube`, plus
// the extra per-access latency for reaching it (unified caches on the
// central cube cost remote units a link round trip).
func (a *Accelerator) bmCacheFor(cube int) (idx int, extra sim.Time) {
	if a.cfg.Distributed {
		return cube, 0
	}
	if cube != 0 {
		// Round trip leaf<->centre for the lookup.
		return 0, 2 * (3 * sim.Nanosecond)
	}
	return 0, 0
}

// bitmapCacheAccess reserves one access to the bitmap cache serving
// `cube`, fetching from memory on a miss. Returns the data-ready time.
func (a *Accelerator) bitmapCacheAccess(t sim.Time, cube int, addr uint64, write bool) sim.Time {
	idx, extra := a.bmCacheFor(cube)
	c := a.bmCaches[idx]
	// The SRAM is dual-ported: two accesses per logic cycle.
	port := LogicPeriod / 2
	start := a.bmCachePort[idx].Reserve(t+extra, port) - port
	res := c.Access(addr, write)
	done := start + a.bmHitLatency
	if !res.Hit {
		homeCube := idx
		if !a.cfg.Distributed {
			homeCube = 0
		}
		done = a.memAccess(start, homeCube, memsys.Read, addr&^uint64(31), 32)
	}
	if res.Writeback {
		a.memAccess(done, idx, memsys.Write, res.WritebackAddr, 32)
	}
	return done + extra
}

// FlushBitmapCaches models the coherence flush after Bitmap Count /
// Scan&Push complete in MajorGC (Section 4.5): dirty lines are written
// back and the cache emptied.
func (a *Accelerator) FlushBitmapCaches(t sim.Time) sim.Time {
	last := t
	for i, c := range a.bmCaches {
		a.dirty = c.AppendDirtyLines(a.dirty[:0])
		for _, addr := range a.dirty {
			if d := a.memAccess(t, i%len(a.mais), memsys.Write, addr, 32); d > last {
				last = d
			}
		}
		c.Flush()
	}
	return last
}
