// Package memsys defines the types shared by all memory-system components:
// memory requests, traffic counters, and the physical address mappings (interleavings) used by the DDR4 and HMC main-memory
// systems from Table 2 of the paper.
//
// The simulator is timing-only at this layer: requests carry no data.
// Functional data lives in the heap arena (internal/heap); the collector
// mutates it eagerly and separately replays the access pattern through
// these timing models.
package memsys

import "charonsim/internal/sim"

// Kind distinguishes reads from writes.
type Kind uint8

const (
	// Read is a memory load.
	Read Kind = iota
	// Write is a memory store.
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Request is a single timing-level memory access. Size may span several
// DRAM bursts (the HMC supports up to 256 B per request; the Charon
// Copy/Search unit always uses that maximum granularity).
type Request struct {
	Kind Kind
	Addr uint64
	Size uint32
}

// Stats accumulates traffic counters for bandwidth accounting (Figure 13).
type Stats struct {
	Reads      uint64
	Writes     uint64
	ReadBytes  uint64
	WriteBytes uint64
}

// Record adds one request to the counters.
func (s *Stats) Record(r *Request) {
	if r.Kind == Read {
		s.Reads++
		s.ReadBytes += uint64(r.Size)
	} else {
		s.Writes++
		s.WriteBytes += uint64(r.Size)
	}
}

// Bytes returns total bytes moved.
func (s *Stats) Bytes() uint64 { return s.ReadBytes + s.WriteBytes }

// Add merges o into s.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadBytes += o.ReadBytes
	s.WriteBytes += o.WriteBytes
}

// BandwidthGBs converts the accumulated bytes to GB/s over elapsed time.
func (s *Stats) BandwidthGBs(elapsed sim.Time) float64 {
	sec := elapsed.Seconds()
	if sec == 0 {
		return 0
	}
	return float64(s.Bytes()) / 1e9 / sec
}
