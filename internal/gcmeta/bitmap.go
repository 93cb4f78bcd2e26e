package gcmeta

import (
	"fmt"
	"math/bits"

	"charonsim/internal/heap"
)

// MarkBitmaps are HotSpot's begin/end mark bitmaps (Section 3.2): one bit
// per 8-byte heap word in each map. A set begin bit marks an object's first
// word; a set end bit marks its last word. The distance between a paired
// begin and end bit is the object's size in words.
//
// The maps occupy simulated address ranges so timing models can charge
// their traffic: begMap at BegBase and endMap at BegBase+Offset, matching
// Figure 8's `endMap = range_start + OFFSET` derivation.
type MarkBitmaps struct {
	heapLo, heapHi heap.Addr
	BegBase        heap.Addr
	Offset         heap.Addr // endMap base = BegBase + Offset

	beg []uint64
	end []uint64

	// Marks counts mark_obj operations (Figure 11 line 17).
	Marks uint64
}

// NewMarkBitmaps covers [heapLo, heapHi). The end map is placed Offset
// bytes after the beg map, where Offset is exactly the map's byte size
// (so the two maps are contiguous, as in HotSpot).
func NewMarkBitmaps(heapLo, heapHi, begBase heap.Addr) *MarkBitmaps {
	if heapHi <= heapLo || uint64(heapLo)%heap.WordBytes != 0 {
		panic("gcmeta: bad bitmap range")
	}
	words := uint64(heapHi-heapLo) / heap.WordBytes
	n := (words + 63) / 64
	return &MarkBitmaps{
		heapLo: heapLo, heapHi: heapHi,
		BegBase: begBase, Offset: heap.Addr((n*8 + 4095) / 4096 * 4096),
		beg: make([]uint64, n), end: make([]uint64, n),
	}
}

// EndBase returns the end map's simulated base address.
func (m *MarkBitmaps) EndBase() heap.Addr { return m.BegBase + m.Offset }

// SizeBytes returns one map's size in bytes (paper: 256 MB per 16 GB heap).
func (m *MarkBitmaps) SizeBytes() uint64 { return uint64(len(m.beg)) * 8 }

// WordIndex converts a heap address to its bit index.
func (m *MarkBitmaps) WordIndex(addr heap.Addr) uint64 {
	if addr < m.heapLo || addr >= m.heapHi {
		panic(fmt.Sprintf("gcmeta: address %#x outside bitmap", uint64(addr)))
	}
	return uint64(addr-m.heapLo) / heap.WordBytes
}

// AddrOfWord converts a bit index back to a heap address.
func (m *MarkBitmaps) AddrOfWord(idx uint64) heap.Addr {
	return m.heapLo + heap.Addr(idx*heap.WordBytes)
}

// BegByteAddr returns the simulated address of the beg-map byte holding
// bit idx (for timing).
func (m *MarkBitmaps) BegByteAddr(idx uint64) heap.Addr { return m.BegBase + heap.Addr(idx/8) }

func get(b []uint64, i uint64) bool { return b[i/64]&(1<<(i%64)) != 0 }
func set(b []uint64, i uint64)      { b[i/64] |= 1 << (i % 64) }
func clearBit(b []uint64, i uint64) { b[i/64] &^= 1 << (i % 64) }

// MarkObject sets the begin bit at addr and the end bit at its last word
// (Figure 11's mark_obj, called during the MajorGC marking phase). Returns
// false if the object was already marked.
func (m *MarkBitmaps) MarkObject(addr heap.Addr, sizeWords int) bool {
	i := m.WordIndex(addr)
	if get(m.beg, i) {
		return false
	}
	set(m.beg, i)
	set(m.end, i+uint64(sizeWords)-1)
	m.Marks++
	return true
}

// IsMarked reports whether a begin bit is set at addr.
func (m *MarkBitmaps) IsMarked(addr heap.Addr) bool { return get(m.beg, m.WordIndex(addr)) }

// ObjectEnd returns the word index of the end bit paired with the begin
// bit at begIdx, scanning forward. Panics if unterminated (corruption).
func (m *MarkBitmaps) ObjectEnd(begIdx uint64) uint64 {
	limit := uint64(len(m.end)) * 64
	e, ok := m.findNext(m.end, begIdx, limit)
	if !ok {
		panic("gcmeta: unterminated object in bitmap")
	}
	return e
}

// ClearAll erases both maps.
func (m *MarkBitmaps) ClearAll() {
	for i := range m.beg {
		m.beg[i] = 0
		m.end[i] = 0
	}
}

// findNext returns the first set bit in b at index >= from and < to.
func (m *MarkBitmaps) findNext(b []uint64, from, to uint64) (uint64, bool) {
	if from >= to {
		return to, false
	}
	w := from / 64
	mask := ^uint64(0) << (from % 64)
	for w < (to+63)/64 {
		v := b[w] & mask
		if v != 0 {
			i := w*64 + uint64(bits.TrailingZeros64(v))
			if i < to {
				return i, true
			}
			return to, false
		}
		w++
		mask = ^uint64(0)
	}
	return to, false
}

// FindNextBegin returns the first live-object start in word range
// [from, to), as a bit index.
func (m *MarkBitmaps) FindNextBegin(from, to uint64) (uint64, bool) {
	return m.findNext(m.beg, from, to)
}

// LiveWordsInRangeNaive implements Figure 8 verbatim: iterate bit by bit,
// pairing begin and end bits, summing (end-beg+1) for every pair fully
// inside [lo, hi) word indices. This is the slow software algorithm the
// host executes.
func (m *MarkBitmaps) LiveWordsInRangeNaive(lo, hi uint64) uint64 {
	var count uint64
	begIdx := lo
	for begIdx < hi {
		if get(m.beg, begIdx) {
			endIdx := begIdx
			for endIdx < hi {
				if get(m.end, endIdx) {
					count += endIdx - begIdx + 1
					begIdx = endIdx
					break
				}
				endIdx++
			}
			if endIdx == hi {
				begIdx = hi
			}
		}
		begIdx++
	}
	return count
}

// LiveWordsInRange is Charon's optimized algorithm (Section 4.3): word-at-
// a-time multi-precision subtraction endMap-begMap plus popcounts —
// CountSetBits(endMap-begMap) + CountSetBits(begMap) — with explicit
// handling of the corner cases where the two maps have unequal set-bit
// counts in the range (an object ending in the range but starting before
// it, or starting in the range but ending after it).
func (m *MarkBitmaps) LiveWordsInRange(lo, hi uint64) uint64 {
	if lo >= hi {
		return 0
	}
	// Corner case normalization. An end bit before the first begin bit
	// belongs to an object starting left of the range: Figure 8's loop
	// skips it, so we must too. A final begin bit with no end bit inside
	// the range is an unterminated object contributing zero.
	firstBeg, anyBeg := m.findNext(m.beg, lo, hi)
	if !anyBeg {
		return 0
	}
	// Find the last begin bit and check it terminates in range.
	effHi := hi
	lastBeg := firstBeg
	for {
		nb, ok := m.findNext(m.beg, lastBeg+1, hi)
		if !ok {
			break
		}
		lastBeg = nb
	}
	if _, ok := m.findNext(m.end, lastBeg, hi); !ok {
		// Drop the unterminated trailing object from consideration.
		effHi = lastBeg
		if effHi <= firstBeg {
			return 0
		}
	}

	lo = firstBeg
	hi = effHi

	// Multi-word subtraction end-beg over bit range [lo, hi), LSB at lo,
	// with popcount accumulation. Borrow propagates upward exactly like a
	// ripple subtractor; disjoint object intervals never interact.
	var count uint64
	var borrow uint64
	w0, w1 := lo/64, (hi+63)/64
	for w := w0; w < w1; w++ {
		bm := m.beg[w]
		em := m.end[w]
		// Mask off bits outside [lo, hi).
		if w == w0 {
			mask := ^uint64(0) << (lo % 64)
			bm &= mask
			em &= mask
		}
		if rem := hi - w*64; rem < 64 {
			mask := (uint64(1) << rem) - 1
			bm &= mask
			em &= mask
		}
		diff, b := bits.Sub64(em, bm, borrow)
		borrow = b
		count += uint64(bits.OnesCount64(diff)) + uint64(bits.OnesCount64(bm))
	}
	return count
}

// ClearObject removes an object's begin/end bits (used by tests).
func (m *MarkBitmaps) ClearObject(addr heap.Addr, sizeWords int) {
	i := m.WordIndex(addr)
	clearBit(m.beg, i)
	clearBit(m.end, i+uint64(sizeWords)-1)
}
