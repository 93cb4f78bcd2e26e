package charon

import (
	"charonsim/internal/hmc"
	"charonsim/internal/memsys"
	"charonsim/internal/sim"
)

// StreamGrain is the access granularity of the Copy/Search unit: the HMC
// maximum of 256 B (Section 4.2).
const StreamGrain = 256

// OffloadCopy performs `val offload(COPY, src, dst, size)` issued by a
// blocked host thread at time t. The primitive is scheduled to the cube
// housing the source (Section 4.2). Returns the time the response packet
// reaches the host.
func (a *Accelerator) OffloadCopy(t sim.Time, src, dst uint64, size uint32) sim.Time {
	a.Stats.Offloads[KCopy]++
	cube, u := a.pickCopySearch(a.sys.Mapper().Cube(src))
	if cube < 0 {
		// Defensive: callers guard with CanCopySearch; serve on the dead
		// home pool rather than corrupt state.
		cube, u = a.sys.Mapper().Cube(src), 0
	}
	at := a.transportRequest(t, cube)
	at = a.translate(at, cube, src)

	un := &a.copySearch[cube][u]
	start := at
	if un.freeAt > start {
		start = un.freeAt
	}

	// Stream reads at one 256 B request per cycle, bounded by the MAI;
	// completed reads drain to memory as a batched write stream (the unit
	// write-buffers, so banks see read runs then write runs instead of a
	// row-thrashing interleave).
	var last sim.Time
	issue := start
	writes := a.copyPend[:0]
	memsys.SplitBursts(src, size, a.grain(), func(addr uint64, n uint32) {
		off := addr - src
		readDone := a.maiAccess(issue, cube, memsys.Read, addr, n)
		writes = append(writes, pendWrite{off: off, n: n, readDone: readDone})
		issue += LogicPeriod
	})
	a.copyPend = writes[:0]
	for _, w := range writes {
		writeDone := a.memAccess(w.readDone, cube, memsys.Write, dst+w.off, w.n)
		if writeDone > last {
			last = writeDone
		}
	}
	if last == 0 {
		last = start + LogicPeriod
	}
	last = a.finish(un, start, last)
	a.span("copy", cube, tidCopy+u, start, last)
	return a.transportResponse(last, cube, hmc.RespPlainBytes)
}

// OffloadSearch performs the card-table range search (Figure 7): stream
// reads at 256 B granularity until `size` bytes are covered (the recorded
// size already reflects early exit at the first dirty card). Scheduled to
// the cube housing the start address. Returns host-visible completion.
func (a *Accelerator) OffloadSearch(t sim.Time, start64 uint64, size uint32) sim.Time {
	a.Stats.Offloads[KSearch]++
	cube, u := a.pickCopySearch(a.sys.Mapper().Cube(start64))
	if cube < 0 {
		cube, u = a.sys.Mapper().Cube(start64), 0
	}
	at := a.transportRequest(t, cube)
	at = a.translate(at, cube, start64)

	un := &a.copySearch[cube][u]
	start := at
	if un.freeAt > start {
		start = un.freeAt
	}

	var last sim.Time
	issue := start
	memsys.SplitBursts(start64, size, a.grain(), func(addr uint64, n uint32) {
		done := a.maiAccess(issue, cube, memsys.Read, addr, n)
		// One cycle of comparison per response.
		done += LogicPeriod
		if done > last {
			last = done
		}
		issue += LogicPeriod
	})
	if last == 0 {
		last = start + LogicPeriod
	}
	last = a.finish(un, start, last)
	a.span("search", cube, tidCopy+u, start, last)
	// Search returns a value: 32 B response.
	return a.transportResponse(last, cube, hmc.RespValueBytes)
}

// OffloadBitmapCount performs live_words_in_range with the optimized
// subtract+popcount algorithm (Section 4.3): both maps are read through
// the bitmap cache at 32 B blocks and processed 8 bytes per cycle.
// begAddr is the beg-map byte address; the end map is read at begAddr +
// offset (Figure 8 line 3). Scheduled to the cube housing the bitmap.
func (a *Accelerator) OffloadBitmapCount(t sim.Time, begAddr, endAddr uint64, size uint32) sim.Time {
	a.Stats.Offloads[KBitmapCount]++
	cube, u := a.pickBitmapCount(a.sys.Mapper().Cube(begAddr))
	if cube < 0 {
		cube, u = a.sys.Mapper().Cube(begAddr), 0
	}
	at := a.transportRequest(t, cube)
	at = a.translate(at, cube, begAddr)

	un := &a.bitmapCount[cube][u]
	start := at
	if un.freeAt > start {
		start = un.freeAt
	}

	// Fetch both maps block by block through the bitmap cache.
	var memLast sim.Time
	for _, base := range [2]uint64{begAddr, endAddr} {
		memsys.SplitBursts(base, size, 32, func(addr uint64, n uint32) {
			if d := a.bitmapCacheAccess(start, cube, addr, false); d > memLast {
				memLast = d
			}
		})
	}
	// Pipeline: 8 bytes of each map per cycle.
	words := (size + 7) / 8
	computeDone := start + sim.Time(words)*LogicPeriod
	last := memLast
	if computeDone > last {
		last = computeDone
	}
	last = a.finish(un, start, last)
	a.span("bitmapcount", cube, tidBitmap+u, start, last)
	return a.transportResponse(last, cube, hmc.RespValueBytes)
}

// OffloadScanPush executes one Scan&Push invocation (Figure 11) on a
// central-cube unit: batched slot loads (coalesced to 256 B requests, one
// per cycle), dependent header checks, then pushes / slot updates / mark
// RMWs / card updates as recorded. stackTop is the object-stack address
// for pushes. Returns host-visible completion.
func (a *Accelerator) OffloadScanPush(t sim.Time, obj uint64, refs []RefOp, stackTop uint64) sim.Time {
	a.Stats.Offloads[KScanPush]++
	const cube = 0 // always the central cube (Section 4.4)
	at := a.transportRequest(t, cube)
	at = a.translate(at, cube, obj)

	u := pickHealthy(a.scanPush)
	if u < 0 {
		u = 0 // defensive: callers guard with CanScanPush
	}
	un := &a.scanPush[u]
	start := at
	if un.freeAt > start {
		start = un.freeAt
	}

	var last sim.Time
	bump := func(d sim.Time) {
		if d > last {
			last = d
		}
	}

	// Slot loads: coalesce contiguous slots into streaming requests. Each
	// invocation scans one object's slots, so references are positionally
	// unique and the completion times index by reference position (the
	// reusable slotDone scratch) rather than through a per-call map.
	issue := start
	if cap(a.slotDone) < len(refs) {
		a.slotDone = make([]sim.Time, len(refs))
	}
	slotDone := a.slotDone[:len(refs)]
	i := 0
	for i < len(refs) {
		base := refs[i].Slot
		end := base + 8
		j := i + 1
		for j < len(refs) && refs[j].Slot == end && end-base < a.grain() {
			end += 8
			j++
		}
		done := a.maiAccess(issue, cube, memsys.Read, base, uint32(end-base))
		for k := i; k < j; k++ {
			slotDone[k] = done
		}
		bump(done)
		issue += LogicPeriod
		i = j
	}

	// Dependent work per reference.
	push := 0
	for ri := range refs {
		r := &refs[ri]
		ready := slotDone[ri]
		if r.Target == 0 {
			continue
		}
		if r.CheckHeader {
			// is_unmarked: 16 B header read at the target (minimum HMC
			// granularity; Section 4.5 notes the overfetch).
			ready = a.maiAccess(ready, cube, memsys.Read, r.Target&^uint64(15), 16)
			bump(ready)
		}
		if r.BitmapProbe {
			// MajorGC is_unmarked: mark-bit read through the bitmap cache.
			ready = a.bitmapCacheAccess(ready, cube, r.Target, false)
			bump(ready)
		}
		if r.MarkBitmap {
			// mark_obj: RMW on both maps through the bitmap cache.
			d := a.bitmapCacheAccess(ready, cube, r.Target, true)
			d = a.bitmapCacheAccess(d, cube, r.Target+8, true)
			bump(d)
			ready = d
		}
		if r.UpdateSlot {
			bump(a.memAccess(ready, cube, memsys.Write, r.Slot&^uint64(15), 16))
		}
		if r.DirtyCard {
			bump(a.memAccess(ready, cube, memsys.Write, r.CardAddr&^uint64(15), 16))
		}
		if r.Push {
			addr := stackTop + uint64(push)*8
			bump(a.memAccess(ready, cube, memsys.Write, addr&^uint64(15), 16))
			push++
		}
	}

	if last < start {
		last = start + LogicPeriod
	}
	last = a.finish(un, start, last)
	a.span("scanpush", cube, tidScanPush+u, start, last)
	return a.transportResponse(last, cube, hmc.RespPlainBytes)
}

// UnitBusy sums busy time per unit kind (for utilization/energy).
func (a *Accelerator) UnitBusy() (copySearch, scanPush, bitmapCount sim.Time) {
	for _, cs := range a.copySearch {
		for _, u := range cs {
			copySearch += u.busy
		}
	}
	for _, u := range a.scanPush {
		scanPush += u.busy
	}
	for _, bc := range a.bitmapCount {
		for _, u := range bc {
			bitmapCount += u.busy
		}
	}
	return
}
