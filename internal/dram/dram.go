// Package dram models DRAM bank timing: row-buffer state machines with the
// tRCD/tCAS/tRP/tRAS/tWR constraints from Table 2 of the Charon paper, and
// a shared data bus per controller. The same bank model serves both the
// DDR4 channels of the baseline system and the per-vault controllers inside
// an HMC cube (which use HMC timings and a narrower TSV bus slice).
//
// The model is an open-page FCFS reservation model: each incoming request
// reserves the earliest slot consistent with its bank's row-buffer state
// and the data bus, which is accurate for in-order per-bank service and
// captures the three effects the paper's results hinge on — row-buffer
// locality, bank-level parallelism, and data-bus bandwidth saturation.
package dram

import (
	"fmt"

	"charonsim/internal/fault"
	"charonsim/internal/memsys"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
)

// Timing holds the DRAM timing parameters (durations, not cycle counts).
type Timing struct {
	TCK  sim.Time // clock period (informational)
	TRAS sim.Time // min time a row stays open after activate
	TRCD sim.Time // activate to column access
	TCAS sim.Time // column access to first data
	TWR  sim.Time // write recovery before precharge
	TRP  sim.Time // precharge duration

	BurstBytes uint32   // bytes transferred per data-bus burst slot
	BurstTime  sim.Time // bus occupancy of one burst slot
}

// DDR4Timing returns Table 2's DDR4 parameters. Each channel sustains
// 17 GB/s, so one 64 B burst occupies ~3.76 ns of the channel data bus.
func DDR4Timing() Timing {
	return Timing{
		TCK:        937 * sim.Picosecond,
		TRAS:       35 * sim.Nanosecond,
		TRCD:       13500 * sim.Picosecond,
		TCAS:       13500 * sim.Picosecond,
		TWR:        15 * sim.Nanosecond,
		TRP:        13500 * sim.Picosecond,
		BurstBytes: 64,
		BurstTime:  3765 * sim.Picosecond, // 64 B / 17 GB/s
	}
}

// HMCVaultTiming returns Table 2's HMC parameters. Each cube sustains
// 320 GB/s over 32 vaults, i.e. 10 GB/s per vault TSV slice; one 32 B burst
// occupies 3.2 ns of the vault's TSV bus.
func HMCVaultTiming() Timing {
	return Timing{
		TCK:        1600 * sim.Picosecond,
		TRAS:       22400 * sim.Picosecond,
		TRCD:       11200 * sim.Picosecond,
		TCAS:       11200 * sim.Picosecond,
		TWR:        14400 * sim.Picosecond,
		TRP:        11200 * sim.Picosecond,
		BurstBytes: 32,
		BurstTime:  3200 * sim.Picosecond, // 32 B / 10 GB/s
	}
}

// bank tracks one DRAM bank's row-buffer state.
type bank struct {
	open       bool
	row        uint64
	readyAt    sim.Time // earliest next column/activate command
	activateAt sim.Time // when the open row was activated (for tRAS)

	// Row-buffer outcome counters (reads only; writes are posted and
	// drained in row-sorted batches, so they bypass the row model).
	rowHits      uint64
	rowOpens     uint64 // closed-bank activates
	rowConflicts uint64
}

// Controller is a single-bus DRAM controller: one DDR4 channel (ranks ×
// banks behind a 17 GB/s bus) or one HMC vault (banks behind a 10 GB/s TSV
// slice). Requests must already be mapped: the caller provides the bank
// index and row for each access.
type Controller struct {
	timing Timing
	banks  []bank

	bus *sim.Calendar // data-bus occupancy (gap-filling reservations)

	// Fault state: flt drives per-read ECC-correction draws at eccRate,
	// remap steers accesses away from hard-faulted banks. Both stay nil
	// with faults off.
	flt     *fault.Source
	eccRate float64
	remap   *memsys.BankRemap

	eccCorrections uint64
	eccDelay       sim.Time
	remappedAccs   uint64

	Stats memsys.Stats
}

// NewController returns a controller managing nbanks banks. A non-nil
// inj injects faults: hard bank faults are drawn once here (from the
// "<name>/banks" stream, in bank order, so the faulted-bank set is a pure
// function of seed and name) and remapped onto healthy neighbours; ECC
// corrections are drawn per read from the "<name>" stream. A nil inj
// means no faults, and name is then unused.
func NewController(timing Timing, nbanks int, inj *fault.Injector, name string) *Controller {
	c := &Controller{
		timing: timing, banks: make([]bank, nbanks),
		bus: sim.NewCalendar(100 * sim.Nanosecond),
	}
	if inj != nil {
		fc := inj.Config()
		c.eccRate = fc.ECCRate()
		c.flt = inj.Source(name)
		banks := inj.Source(name + "/banks")
		c.remap = memsys.NewBankRemap(nbanks, func(int) bool {
			return banks.Hit(fc.HardBankRate())
		})
	}
	return c
}

// FaultStats returns the controller's reliability counters: ECC-corrected
// reads, total correction latency charged, hard-faulted (remapped) banks,
// and accesses redirected by the remap table.
func (c *Controller) FaultStats() (eccCorrections uint64, eccDelay sim.Time, remappedBanks int, remappedAccesses uint64) {
	return c.eccCorrections, c.eccDelay, c.remap.Remapped(), c.remappedAccs
}

// BusBusy returns the accumulated data-bus occupancy.
func (c *Controller) BusBusy() sim.Time { return c.bus.Busy }

// BusUtilization returns the fraction of [0, horizon) the data bus was
// reserved; always in [0, 1].
func (c *Controller) BusUtilization(horizon sim.Time) float64 {
	return c.bus.Utilization(horizon)
}

// RowStats sums row-buffer outcomes over all banks.
func (c *Controller) RowStats() (hits, opens, conflicts uint64) {
	for i := range c.banks {
		hits += c.banks[i].rowHits
		opens += c.banks[i].rowOpens
		conflicts += c.banks[i].rowConflicts
	}
	return
}

// Collect publishes the controller's counters into reg under prefix:
// aggregate traffic, bus occupancy, and per-bank row-buffer outcomes.
// A positive horizon additionally publishes the bus utilization gauge.
// No-op when reg is disabled.
func (c *Controller) Collect(reg *metrics.Registry, prefix string, horizon sim.Time) {
	if !reg.Enabled() {
		return
	}
	reg.AddUint(prefix+"/reads", c.Stats.Reads)
	reg.AddUint(prefix+"/writes", c.Stats.Writes)
	reg.AddUint(prefix+"/read_bytes", c.Stats.ReadBytes)
	reg.AddUint(prefix+"/write_bytes", c.Stats.WriteBytes)
	reg.AddUint(prefix+"/bus_busy_ps", uint64(c.bus.Busy))
	if horizon > 0 {
		reg.SetMax(prefix+"/bus_util", c.bus.Utilization(horizon))
	}
	if c.eccCorrections > 0 {
		reg.AddUint(prefix+"/ecc_corrections", c.eccCorrections)
		reg.AddUint(prefix+"/ecc_delay_ps", uint64(c.eccDelay))
	}
	if n := c.remap.Remapped(); n > 0 {
		reg.AddUint(prefix+"/remapped_banks", uint64(n))
		reg.AddUint(prefix+"/remapped_accesses", c.remappedAccs)
	}
	for i := range c.banks {
		b := &c.banks[i]
		if b.rowHits == 0 && b.rowOpens == 0 && b.rowConflicts == 0 {
			continue
		}
		p := fmt.Sprintf("%s/bank%d", prefix, i)
		reg.AddUint(p+"/row_hits", b.rowHits)
		reg.AddUint(p+"/row_opens", b.rowOpens)
		reg.AddUint(p+"/row_conflicts", b.rowConflicts)
	}
}

// WriteDrainOverhead is the extra data-bus occupancy factor charged to
// posted writes (numerator/denominator): the amortized cost of the
// activates and write-recovery slots spent while the controller drains its
// write buffer in batches. Real controllers buffer stores and drain them
// in row-sorted runs, so writes do not thrash the read stream's open rows;
// their visible cost is bandwidth, modelled here as 25% extra occupancy.
const (
	writeDrainNum = 5
	writeDrainDen = 4
)

// AccessAt reserves service for one request of size bytes hitting
// (bankIdx, row), starting no earlier than now, and returns the completion
// time. Size may exceed one burst; the extra bursts occupy consecutive bus
// slots with the row held open.
func (c *Controller) AccessAt(now sim.Time, kind memsys.Kind, bankIdx int, row uint64, size uint32) sim.Time {
	// Hard-faulted banks are served by their remap target: same row/size,
	// different bank state machine (so the spare bank absorbs the extra
	// pressure, which is the performance effect we want to observe).
	if m := c.remap.Bank(bankIdx); m != bankIdx {
		bankIdx = m
		c.remappedAccs++
	}

	nbursts := (uint64(size) + uint64(c.timing.BurstBytes) - 1) / uint64(c.timing.BurstBytes)
	if nbursts == 0 {
		nbursts = 1
	}
	occupancy := sim.Time(nbursts) * c.timing.BurstTime

	if kind == memsys.Write {
		// Posted write: absorbed by the write buffer and drained
		// opportunistically in row-sorted batches; the system-visible cost
		// is data-bus occupancy plus the drain overhead.
		occ := occupancy * writeDrainNum / writeDrainDen
		done := c.bus.Reserve(now, occ)
		c.Stats.Record(&memsys.Request{Kind: kind, Size: size})
		return done
	}

	b := &c.banks[bankIdx]
	start := b.readyAt
	if start < now {
		start = now
	}

	// Column commands pipeline: successive row hits issue every burst slot
	// (tCCD ≈ burst time) and their CAS latencies overlap, so the bank's
	// next-command time advances by the burst occupancy, not the full
	// access latency.
	var dataAt sim.Time
	switch {
	case b.open && b.row == row:
		// Row hit: column access only.
		b.rowHits++
		dataAt = start + c.timing.TCAS
		b.readyAt = start + occupancy
	case !b.open:
		// Closed bank: activate then column access.
		b.rowOpens++
		b.activateAt = start
		dataAt = start + c.timing.TRCD + c.timing.TCAS
		b.readyAt = start + c.timing.TRCD + occupancy
		b.open = true
		b.row = row
	default:
		// Row conflict: precharge (respecting tRAS and tWR), activate, access.
		b.rowConflicts++
		pre := start
		if t := b.activateAt + c.timing.TRAS; t > pre {
			pre = t
		}
		act := pre + c.timing.TRP
		b.activateAt = act
		dataAt = act + c.timing.TRCD + c.timing.TCAS
		b.readyAt = act + c.timing.TRCD + occupancy
		b.row = row
	}

	// Data bus: the burst train starts when both the data is ready and a
	// bus slot is free (gap-filling: an idle slot before someone else's
	// future reservation is usable).
	done := c.bus.Reserve(dataAt, occupancy)
	c.Stats.Record(&memsys.Request{Kind: kind, Size: size})
	// ECC correction: detect-correct-replay delays the returning data but
	// occupies no extra bus slot (the corrected word is patched in the
	// controller, not re-read from the bank).
	if c.flt.Hit(c.eccRate) {
		done += fault.ECCLatency
		c.eccCorrections++
		c.eccDelay += fault.ECCLatency
	}
	return done
}

// DDR4 is the baseline main-memory system: a mapper plus one Controller per
// channel. It accepts arbitrary-size requests, splits them into 64 B lines,
// routes each line to its channel, and completes the request when the last
// line finishes.
type DDR4 struct {
	mapper   *memsys.DDR4Mapper
	channels []*Controller
}

// NewDDR4 builds the Table 2 DDR4 system. A non-nil inj injects faults
// into each channel controller (streams "ddr4/ch0", "ddr4/ch1", ...); nil
// means no faults.
func NewDDR4(inj *fault.Injector) *DDR4 {
	m := memsys.NewDDR4Mapper()
	d := &DDR4{mapper: m}
	for i := 0; i < m.Channels; i++ {
		d.channels = append(d.channels,
			NewController(DDR4Timing(), m.Ranks*m.Banks, inj, fmt.Sprintf("ddr4/ch%d", i)))
	}
	return d
}

// Mapper exposes the address mapping.
func (d *DDR4) Mapper() *memsys.DDR4Mapper { return d.mapper }

// Channels exposes the per-channel controllers (for stats).
func (d *DDR4) Channels() []*Controller { return d.channels }

// Collect publishes per-channel counters under prefix (e.g. "ddr4"),
// one subtree per channel. No-op when reg is disabled.
func (d *DDR4) Collect(reg *metrics.Registry, prefix string, horizon sim.Time) {
	if !reg.Enabled() {
		return
	}
	for i, c := range d.channels {
		c.Collect(reg, fmt.Sprintf("%s/ch%d", prefix, i), horizon)
	}
}

// Stats sums traffic over all channels.
func (d *DDR4) Stats() memsys.Stats {
	var s memsys.Stats
	for _, c := range d.channels {
		s.Add(c.Stats)
	}
	return s
}

// AccessAt reserves service for an access starting no earlier than start:
// the access is split into 64 B lines that are serviced by their home
// channels, and AccessAt returns the completion time of the last line.
func (d *DDR4) AccessAt(start sim.Time, kind memsys.Kind, addr uint64, size uint32) sim.Time {
	var last sim.Time
	memsys.SplitBursts(addr, size, 64, func(a uint64, s uint32) {
		coord := d.mapper.Map(a)
		ch := d.channels[coord.Channel]
		done := ch.AccessAt(start, kind, coord.Rank*d.mapper.Banks+coord.Bank, coord.Row, s)
		if done > last {
			last = done
		}
	})
	return last
}
