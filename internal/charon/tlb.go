package charon

import (
	"charonsim/internal/memsys"
	"charonsim/internal/sim"
)

// TLB is the accelerator-side translation structure of Section 4.6. The
// JVM pins the heap's huge pages at launch (mlock + -XX:+UseLargePage),
// so Charon only needs "just enough duplicate TLB entries on the DRAM
// side to cover those pinned-down huge pages": after initialize() no
// misses or page faults occur during GC. Entries are tagged with a
// process id (the PCID extension the paper leans on for multi-process
// support); switching processes invalidates nothing — entries of distinct
// PCIDs coexist until capacity eviction.
type TLB struct {
	shift   uint // log2 of the (huge) page size
	entries []tlbEntry
	tick    uint64

	Hits, Misses uint64
}

type tlbEntry struct {
	valid bool
	pcid  uint16
	vpn   uint64
	lru   uint64
}

// newTLB builds a TLB with the given capacity and page shift.
func newTLB(capacity int, shift uint) *TLB {
	return &TLB{shift: shift, entries: make([]tlbEntry, capacity)}
}

// Lookup translates addr for pcid, returning whether it hit.
func (t *TLB) Lookup(pcid uint16, addr uint64) bool {
	vpn := addr >> t.shift
	t.tick++
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.pcid == pcid && e.vpn == vpn {
			e.lru = t.tick
			t.Hits++
			return true
		}
	}
	t.Misses++
	return false
}

// Insert installs a translation, evicting the LRU entry if full.
func (t *TLB) Insert(pcid uint16, addr uint64) {
	vpn := addr >> t.shift
	t.tick++
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.pcid == pcid && e.vpn == vpn {
			e.lru = t.tick
			return
		}
		if !e.valid {
			victim = i
			break
		}
		if e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.entries[victim] = tlbEntry{valid: true, pcid: pcid, vpn: vpn, lru: t.tick}
}

// Flush drops every entry (full invalidation; with PCIDs this is only
// needed on address-space teardown).
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i] = tlbEntry{}
	}
}

// Coverage returns how many valid entries the TLB holds.
func (t *TLB) Coverage() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}

// AddrRange is a pinned region registered through the initialize()
// intrinsic (Section 4.1): heap, card table, mark bitmaps, object stacks.
type AddrRange struct {
	Base  uint64
	Bytes uint64
}

// Initialize implements the paper's initialize() intrinsic: it programs
// the per-unit configuration registers (base addresses of the globally
// accessed structures) and pre-loads every TLB slice with the pinned huge
// pages covering the given regions, so subsequent offloads never miss.
func (a *Accelerator) Initialize(pcid uint16, regions ...AddrRange) {
	a.pcid = pcid
	pageBytes := uint64(1) << a.tlbShift()
	for _, t := range a.tlbs {
		for _, r := range regions {
			for addr := r.Base &^ (pageBytes - 1); addr < r.Base+r.Bytes; addr += pageBytes {
				t.Insert(pcid, addr)
			}
		}
	}
}

// tlbShift returns the huge-page shift: the cube-interleave granularity
// (the paper's 1 GB pages at full scale; the mapper's CubeShift scaled).
func (a *Accelerator) tlbShift() uint { return a.sys.Mapper().CubeShift }

// tlbFor returns the TLB slice serving a unit on `cube` plus the access
// penalty for reaching it (unified placement costs remote units a link
// round trip, exactly like the unified bitmap cache).
func (a *Accelerator) tlbFor(cube int) (*TLB, sim.Time) {
	if a.cfg.Distributed {
		return a.tlbs[cube], 0
	}
	if cube != 0 {
		return a.tlbs[0], 2 * (3 * sim.Nanosecond)
	}
	return a.tlbs[0], 0
}

// translate performs the virtual-to-physical lookup for one offload. With
// pinned pages this is a hit; a miss (the region was never registered)
// costs a page-table walk through memory before the unit can start.
func (a *Accelerator) translate(t sim.Time, cube int, addr uint64) sim.Time {
	tlb, extra := a.tlbFor(cube)
	a.Stats.TLBAccesses++
	if extra > 0 {
		a.Stats.TLBRemote++
	}
	if tlb.Lookup(a.pcid, addr) {
		return t + extra + LogicPeriod
	}
	// Page walk: two dependent memory reads (PMD, PTE) from the page-table
	// region, then insert.
	a.Stats.TLBWalks++
	walk := a.memAccess(t+extra, cube, memsys.Read, pageTableBase+(addr>>a.tlbShift())*8, 64)
	walk = a.memAccess(walk, cube, memsys.Read, pageTableBase+(addr>>a.tlbShift())*8+4096, 64)
	tlb.Insert(a.pcid, addr)
	return walk + extra
}

// pageTableBase is the simulated address of the page-table region (only
// touched on the never-expected miss path).
const pageTableBase = 1 << 40
