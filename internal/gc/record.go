// Package gc implements a ParallelScavenge-style generational collector
// over the heap substrate, mirroring the structure the paper derives its
// primitives from (Figures 1, 3, 7, 8, 11):
//
//   - MinorGC: card-table Search for old-to-young references, then a
//     pop/Copy/Scan&Push drain loop that evacuates live young objects to
//     the To survivor space or promotes them to the old generation;
//   - MajorGC: a marking phase (Scan&Push + mark bitmaps), a summary
//     phase, a pointer-adjustment phase that computes every live object's
//     destination with Bitmap Count, and a compaction phase that Copies
//     live objects into a dense prefix of the heap.
//
// The collector is functionally complete (the heap is really collected —
// tests verify reachability preservation) and additionally *records* every
// primitive invocation as a compact work descriptor. The exec package
// replays those descriptors through the platform timing models (host CPU
// over DDR4/HMC, Charon units, ideal), which is how every figure of the
// paper is regenerated from a single functional run.
package gc

import (
	"fmt"

	"charonsim/internal/heap"
)

// Prim identifies one of the offloadable primitives (or the residual
// non-offloaded work).
type Prim uint8

const (
	// PrimCopy moves an object's bytes (Figure 7, top).
	PrimCopy Prim = iota
	// PrimSearch scans a card-table range for dirty cards (Figure 7, bottom).
	PrimSearch
	// PrimScanPush iterates an object's reference slots, pushing
	// unprocessed referents (Figure 11).
	PrimScanPush
	// PrimBitmapCount sums live words in a bitmap range (Figure 8).
	PrimBitmapCount
	// PrimAdjust is MajorGC pointer adjustment (not offloaded).
	PrimAdjust
	// PrimOther is residual work: pop, allocate, check-mark, root scan
	// (explicitly not offloaded, Section 3.3).
	PrimOther

	NumPrims
)

var primNames = [...]string{"Copy", "Search", "Scan&Push", "BitmapCount", "AdjustPointer", "Other"}

// String returns the primitive's display name.
func (p Prim) String() string {
	if int(p) < len(primNames) {
		return primNames[p]
	}
	return "?"
}

// Offloadable reports whether Charon accelerates this primitive.
func (p Prim) Offloadable() bool { return p <= PrimBitmapCount }

// RefVisit flags.
const (
	// RefNull: slot held null.
	RefNull uint8 = 1 << iota
	// RefPushed: referent pushed onto the object stack.
	RefPushed
	// RefForwardUpdate: slot rewritten with a forwarding address.
	RefForwardUpdate
	// RefNewlyMarked: mark_obj set a new bitmap bit (MajorGC).
	RefNewlyMarked
	// RefCardDirty: storing the slot dirtied a card (old→young).
	RefCardDirty
)

// AddrLimit bounds every address the log packs. An Invocation holds A
// in a 32-bit word and B, as a word address, beside Prim in another; a
// RefVisit holds its slot and target as word addresses beside the flags
// in one 64-bit word. So every operand lies below 2^32, and B, slot and
// target are 8-byte aligned. New rejects a layout that reaches past it.
const AddrLimit heap.Addr = 1 << 32

const (
	wordBits  = 29 // a word address below AddrLimit
	wordMask  = 1<<wordBits - 1
	flagBits  = 5 // RefNull ... RefCardDirty
	flagShift = 2 * wordBits
)

// unpackable is the panic value for an operand the log cannot hold: an
// address at or past AddrLimit, a misaligned B, slot or target, an
// unknown primitive or flag set. Truncating it instead would replay a
// different operand.
type unpackable struct {
	operand string
	value   uint64
}

func (u unpackable) Error() string {
	return fmt.Sprintf("gc: log operand %s %#x does not fit the log (addresses below the address limit %#x; B, slot and target 8-byte aligned)",
		u.operand, u.value, uint64(AddrLimit))
}

// word returns a's word address; a must be 8-byte aligned and below
// AddrLimit.
func word(a heap.Addr, operand string) uint64 {
	if a%heap.WordBytes != 0 || a >= AddrLimit {
		panic(unpackable{operand, uint64(a)})
	}
	return uint64(a / heap.WordBytes)
}

// RefVisit records one reference-slot visit inside a Scan&Push invocation:
// the slot read and the (pre-GC) target loaded from it, plus what happened.
// A recording keeps millions of visits, so slot and target are packed as
// word addresses beside the flags and a visit is 8 bytes.
type RefVisit struct {
	w uint64 // slot word in bits 0-28, target word in bits 29-57, flags in 58-62
}

// NewRefVisit packs one visit. slot and target must be 8-byte aligned and
// below AddrLimit, and flags must be a set of the five Ref flags.
func NewRefVisit(slot, target heap.Addr, flags uint8) RefVisit {
	if flags >= 1<<flagBits {
		panic(unpackable{"flags", uint64(flags)})
	}
	return RefVisit{w: word(slot, "slot") | word(target, "target")<<wordBits | uint64(flags)<<flagShift}
}

// Slot is the address of the visited reference slot.
func (v RefVisit) Slot() heap.Addr { return heap.Addr(v.w&wordMask) * heap.WordBytes }

// Target is the (pre-GC) value loaded from the slot.
func (v RefVisit) Target() heap.Addr { return heap.Addr(v.w>>wordBits&wordMask) * heap.WordBytes }

// Flags is what the visit did (RefNull, RefPushed, ...).
func (v RefVisit) Flags() uint8 { return uint8(v.w >> flagShift) }

// Call is one primitive call with its operands unpacked; Pack turns it
// into the Invocation the log keeps. Operands by primitive:
//
//	Copy:        A=src, B=dst, N=bytes
//	Search:      A=first card-byte address, N=card bytes scanned
//	ScanPush:    A=object, B=stack-top address, N=#refs; Refs[RefOff:RefOff+N]
//	BitmapCount: A=beg-map byte address, N=map bytes scanned (per map)
//	Adjust:      A=object, N=#slots rewritten
//	Other:       A=optional address (0 = none), N=instruction estimate
type Call struct {
	Prim      Prim
	A, B      heap.Addr
	N, RefOff uint32
}

// Pack packs c into an Invocation. c.A must lie below AddrLimit, c.B must
// also be 8-byte aligned, and c.Prim must be one of the NumPrims.
func (c Call) Pack() Invocation {
	if c.Prim >= NumPrims {
		panic(unpackable{"Prim", uint64(c.Prim)})
	}
	if c.A >= AddrLimit {
		panic(unpackable{"A", uint64(c.A)})
	}
	return Invocation{a: uint32(c.A), pb: uint32(word(c.B, "B")) | uint32(c.Prim)<<wordBits, N: c.N, RefOff: c.RefOff}
}

// Invocation is one recorded primitive call (see Call for its operands).
// A recording keeps millions of them, so A is a 32-bit byte address, B a
// word address sharing its word with Prim, and no reference count is
// kept beside N (a Scan&Push visits exactly N references): an invocation
// is 16 bytes.
type Invocation struct {
	a      uint32 // A
	pb     uint32 // B's word address in the low 29 bits, Prim in the top 3
	N      uint32
	RefOff uint32
}

// Prim is the invoked primitive.
func (v Invocation) Prim() Prim { return Prim(v.pb >> wordBits) }

// A is the first address operand (see Call); 0 means none.
func (v Invocation) A() heap.Addr { return heap.Addr(v.a) }

// B is the second address operand (Copy destination, Scan&Push stack top).
func (v Invocation) B() heap.Addr { return heap.Addr(v.pb&wordMask) * heap.WordBytes }

// Kind distinguishes GC event types.
type Kind uint8

const (
	// Minor is a young-generation scavenge.
	Minor Kind = iota
	// Major is a full mark-compact.
	Major
	// MajorMS is a CMS-style non-moving mark-sweep of the old generation
	// (Table 1's third collector: no compaction, no Bitmap Count).
	MajorMS
	// MajorG1 is a G1-style mixed collection: mark, compute per-region
	// liveness (Bitmap Count "scanning the bitmap to identify the state of
	// the entire heap", Table 1), then evacuate the garbage-first regions.
	MajorG1
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Minor:
		return "minor"
	case MajorMS:
		return "marksweep"
	case MajorG1:
		return "mixed"
	}
	return "major"
}

// Moving reports whether this collection relocates objects.
func (k Kind) Moving() bool { return k != MajorMS }

// Mode selects the full-collection strategy, mirroring Table 1's three
// production collectors.
type Mode int

const (
	// ModePS: ParallelScavenge — compacting MajorGC (the paper's default).
	ModePS Mode = iota
	// ModeCMS: CMS-style non-moving mark-sweep, compaction only as the
	// concurrent-mode-failure fallback.
	ModeCMS
	// ModeG1: G1-style garbage-first mixed collections.
	ModeG1
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeCMS:
		return "CMS"
	case ModeG1:
		return "G1"
	}
	return "ParallelScavenge"
}

// Event is one recorded GC: its full invocation trace plus functional
// statistics.
type Event struct {
	Kind   Kind
	Seq    int
	Reason string

	Invocations []Invocation
	Refs        []RefVisit

	// Functional outcome.
	LiveObjects    uint64
	LiveBytes      uint64
	CopiedBytes    uint64
	PromotedBytes  uint64
	ReclaimedBytes uint64
}

// EventLog is what replay reads of a finished recording: its events, in
// order. It holds no functional state (heap, card table, mark bitmaps or
// object stack), so a kept log does not keep the simulated heap alive.
type EventLog struct {
	Log []*Event
}

// CountByPrim tallies invocations per primitive.
func (e *Event) CountByPrim() [NumPrims]uint64 {
	var out [NumPrims]uint64
	for i := range e.Invocations {
		out[e.Invocations[i].Prim()]++
	}
	return out
}

// BytesByPrim tallies the N operand per primitive (bytes for Copy/Search/
// BitmapCount, ref counts for ScanPush).
func (e *Event) BytesByPrim() [NumPrims]uint64 {
	var out [NumPrims]uint64
	for i := range e.Invocations {
		out[e.Invocations[i].Prim()] += uint64(e.Invocations[i].N)
	}
	return out
}

// record packs and appends a call if recording is enabled.
func (c *Collector) record(call Call) {
	if c.ev != nil {
		c.ev.Invocations = append(c.ev.Invocations, call.Pack())
	}
}

// recordRef packs and appends a reference visit if recording is enabled.
func (c *Collector) recordRef(slot, target heap.Addr, flags uint8) {
	if c.ev != nil {
		c.ev.Refs = append(c.ev.Refs, NewRefVisit(slot, target, flags))
	}
}
