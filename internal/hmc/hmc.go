// Package hmc models the Hybrid Memory Cube main-memory system from
// Table 2: four cubes of 32 vaults each (320 GB/s internal bandwidth per
// cube), connected to the host and to each other by 80 GB/s serial links
// with 3 ns latency, in a star topology centred on cube 0 (Figure 5(a)).
//
// Two access paths exist, mirroring the paper:
//
//   - the host path: requests traverse the host link into cube 0 and are
//     routed onwards, paying link serialization both ways — this is the
//     "HMC" baseline of Figure 12, which enjoys more off-chip bandwidth
//     than DDR4 but cannot touch the internal TSV bandwidth;
//   - the near-memory path: a Charon processing unit on a cube's logic
//     layer accesses its local vaults directly over TSVs, or remote cubes
//     through inter-cube links without consuming host-link bandwidth —
//     this is what unlocks the Figure 13 bandwidth numbers.
package hmc

import (
	"fmt"

	"charonsim/internal/dram"
	"charonsim/internal/fault"
	"charonsim/internal/memsys"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
)

// Packet framing from Section 4.1: every HMC packet carries a 16 B
// header+tail. Offload requests are 48 B; responses 16 B (no value) or
// 32 B (with value).
const (
	PacketOverhead  = 16
	OffloadReqBytes = 48
	RespPlainBytes  = 16
	RespValueBytes  = 32
)

// Topology selects how the cubes are interconnected (Section 4.6 notes
// the architecture is not tied to one topology; Figure 5 shows the star).
type Topology int

const (
	// Star: cube 0 is the centre, attached to the host; cubes 1..3 hang
	// off cube 0 (the paper's evaluated configuration).
	Star Topology = iota
	// Chain: host - cube0 - cube1 - cube2 - cube3; remote accesses pay
	// one link per hop, trading wiring for worst-case latency (the
	// daisy-chaining HMC's specification supports).
	Chain
)

// String names the topology.
func (t Topology) String() string {
	if t == Chain {
		return "chain"
	}
	return "star"
}

// LinkConfig describes one serial link.
type LinkConfig struct {
	BytesPerSec float64  // 80 GB/s in Table 2
	Latency     sim.Time // 3 ns propagation
}

// DefaultLinkConfig returns Table 2's link parameters.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{BytesPerSec: 80e9, Latency: 3 * sim.Nanosecond}
}

// Link is a full-duplex serial link. Each direction serializes packets at
// the configured bandwidth; propagation latency is added after
// serialization.
type Link struct {
	cfg  LinkConfig
	lane [2]*sim.Calendar // per-direction serialization occupancy
	// ser[n] is the serialization time of an n-byte packet, precomputed
	// for every size up to serMemoBytes.
	ser [serMemoBytes + 1]sim.Time

	// flt drives per-packet CRC-error draws; nil with faults off.
	flt  *fault.Source
	fcfg fault.Config

	// Retry accounting. Stats records each logical packet exactly once —
	// retransmissions appear only here (plus as extra lane occupancy), so
	// byte-conservation and bandwidth reports stay in logical bytes.
	Retries      uint64   // retransmitted packets (all causes)
	RetransBytes uint64   // bytes re-serialized by retransmissions
	RetryGiveups uint64   // packets that exhausted the retry budget
	RetryDelay   sim.Time // total extra delivery delay from retries

	Stats memsys.Stats
}

// serMemoBytes is the largest packet whose serialization time a Link
// precomputes: a 256 B payload plus framing.
const serMemoBytes = 256 + PacketOverhead

// Directions for Link.Transfer.
const (
	DirDown = 0 // toward memory (host→cube, centre→leaf)
	DirUp   = 1 // toward host (cube→host, leaf→centre)
)

// NewLink creates a link. A non-nil inj injects CRC faults drawn from the
// named stream; nil means no faults, and name is then unused.
func NewLink(cfg LinkConfig, inj *fault.Injector, name string) *Link {
	l := &Link{cfg: cfg, lane: [2]*sim.Calendar{
		sim.NewCalendar(50 * sim.Nanosecond),
		sim.NewCalendar(50 * sim.Nanosecond),
	}}
	for n := range l.ser {
		l.ser[n] = serialization(cfg, uint32(n))
	}
	if inj != nil {
		l.fcfg = inj.Config()
		l.flt = inj.Source(name)
	}
	return l
}

// serialization computes the time to serialize n bytes on a link.
func serialization(cfg LinkConfig, n uint32) sim.Time {
	return sim.Time(float64(n) / cfg.BytesPerSec * 1e12)
}

// serTime returns the serialization time for n bytes: a table lookup for
// packets up to serMemoBytes, computed per packet above that.
func (l *Link) serTime(n uint32) sim.Time {
	if n <= serMemoBytes {
		return l.ser[n]
	}
	return serialization(l.cfg, n)
}

// TransferAt reserves a packet of n bytes in direction dir no earlier
// than start, returning its arrival time at the far end.
func (l *Link) TransferAt(start sim.Time, dir int, n uint32) sim.Time {
	ser := l.serTime(n)
	end := l.lane[dir].Reserve(start, ser)
	// CRC retry loop: each corrupted transmission is re-serialized on the
	// same lane after a bounded exponential backoff (doubling per attempt,
	// capped at 16x). The lane occupancy is real — concurrent packets see
	// the lane busy and queue behind the retransmissions, so utilization
	// and timing degrade together — but Stats below records the logical
	// packet once, keeping delivered-byte accounting exact.
	if l.flt != nil {
		backoff := l.fcfg.RetryBackoff
		firstTry := end
		for attempt := 0; l.flt.Hit(l.fcfg.LinkCRCRate); attempt++ {
			if attempt >= l.fcfg.RetryBudget {
				l.RetryGiveups++
				break
			}
			l.Retries++
			l.RetransBytes += uint64(n)
			end = l.lane[dir].Reserve(end+backoff, ser)
			if backoff < l.fcfg.RetryBackoff*16 {
				backoff *= 2
			}
		}
		l.RetryDelay += end - firstTry
	}
	kind := memsys.Read
	if dir == DirDown {
		kind = memsys.Write
	}
	l.Stats.Record(&memsys.Request{Kind: kind, Size: n})
	return end + l.cfg.Latency
}

// Busy returns accumulated serialization occupancy per direction.
func (l *Link) Busy(dir int) sim.Time { return l.lane[dir].Busy }

// Utilization returns the fraction of [0, horizon) the given direction's
// lane was serializing; always in [0, 1].
func (l *Link) Utilization(dir int, horizon sim.Time) float64 {
	return l.lane[dir].Utilization(horizon)
}

// Collect publishes per-direction bytes and occupancy under prefix
// (down = toward memory, up = toward host). A positive horizon
// additionally publishes utilization gauges. No-op when reg is disabled.
func (l *Link) Collect(reg *metrics.Registry, prefix string, horizon sim.Time) {
	if !reg.Enabled() {
		return
	}
	// Stats.Record files DirDown packets as writes and DirUp as reads.
	reg.AddUint(prefix+"/down_bytes", l.Stats.WriteBytes)
	reg.AddUint(prefix+"/up_bytes", l.Stats.ReadBytes)
	reg.AddUint(prefix+"/down_busy_ps", uint64(l.lane[DirDown].Busy))
	reg.AddUint(prefix+"/up_busy_ps", uint64(l.lane[DirUp].Busy))
	if horizon > 0 {
		reg.SetMax(prefix+"/down_util", l.lane[DirDown].Utilization(horizon))
		reg.SetMax(prefix+"/up_util", l.lane[DirUp].Utilization(horizon))
	}
	if l.Retries > 0 || l.RetryGiveups > 0 {
		reg.AddUint(prefix+"/crc_retries", l.Retries)
		reg.AddUint(prefix+"/crc_retrans_bytes", l.RetransBytes)
		reg.AddUint(prefix+"/crc_giveups", l.RetryGiveups)
		reg.AddUint(prefix+"/crc_retry_delay_ps", uint64(l.RetryDelay))
	}
}

// Cube is one HMC stack: 32 vault controllers behind the logic layer.
type Cube struct {
	ID     int
	vaults []*dram.Controller
	mapper *memsys.HMCMapper

	// TSVStats counts traffic through this cube's internal TSVs.
	TSVStats memsys.Stats
}

func newCube(id int, m *memsys.HMCMapper, inj *fault.Injector) *Cube {
	c := &Cube{ID: id, mapper: m}
	for v := 0; v < m.Vaults; v++ {
		c.vaults = append(c.vaults,
			dram.NewController(dram.HMCVaultTiming(), m.Banks, inj,
				fmt.Sprintf("hmc/cube%d/vault%d", id, v)))
	}
	return c
}

// AccessAt reserves a vault access for a request already routed to this
// cube, starting no earlier than start, and returns the completion time.
// The caller must have mapped addr to this cube.
func (c *Cube) AccessAt(start sim.Time, kind memsys.Kind, addr uint64, size uint32) sim.Time {
	var last sim.Time
	memsys.SplitBursts(addr, size, c.mapper.VaultGrain, func(a uint64, s uint32) {
		coord := c.mapper.Map(a)
		done := c.vaults[coord.Rank].AccessAt(start, kind, coord.Bank, coord.Row, s)
		if done > last {
			last = done
		}
	})
	c.TSVStats.Record(&memsys.Request{Kind: kind, Size: size})
	return last
}

// Vaults exposes the vault controllers (for stats and tests).
func (c *Cube) Vaults() []*dram.Controller { return c.vaults }

// Collect publishes this cube's TSV traffic, aggregate row-buffer
// outcomes, and per-vault bytes under prefix. No-op when reg is disabled.
func (c *Cube) Collect(reg *metrics.Registry, prefix string, horizon sim.Time) {
	if !reg.Enabled() {
		return
	}
	reg.AddUint(prefix+"/tsv_reads", c.TSVStats.Reads)
	reg.AddUint(prefix+"/tsv_writes", c.TSVStats.Writes)
	reg.AddUint(prefix+"/tsv_read_bytes", c.TSVStats.ReadBytes)
	reg.AddUint(prefix+"/tsv_write_bytes", c.TSVStats.WriteBytes)
	var hits, opens, conflicts uint64
	for v, ctl := range c.vaults {
		h, o, cf := ctl.RowStats()
		hits += h
		opens += o
		conflicts += cf
		if ctl.Stats.Reads == 0 && ctl.Stats.Writes == 0 {
			continue
		}
		p := fmt.Sprintf("%s/vault%d", prefix, v)
		reg.AddUint(p+"/read_bytes", ctl.Stats.ReadBytes)
		reg.AddUint(p+"/write_bytes", ctl.Stats.WriteBytes)
		reg.AddUint(p+"/bus_busy_ps", uint64(ctl.BusBusy()))
		if horizon > 0 {
			reg.SetMax(p+"/bus_util", ctl.BusUtilization(horizon))
		}
		if ecc, delay, banks, accs := ctl.FaultStats(); ecc > 0 || banks > 0 {
			reg.AddUint(p+"/ecc_corrections", ecc)
			reg.AddUint(p+"/ecc_delay_ps", uint64(delay))
			if banks > 0 {
				reg.AddUint(p+"/remapped_banks", uint64(banks))
				reg.AddUint(p+"/remapped_accesses", accs)
			}
		}
	}
	reg.AddUint(prefix+"/row_hits", hits)
	reg.AddUint(prefix+"/row_opens", opens)
	reg.AddUint(prefix+"/row_conflicts", conflicts)
}

// System is the full four-cube network. In the star topology cube 0 is
// the centre attached to the host with cubes 1..3 hanging off it; in the
// chain topology link i connects cube i-1 to cube i.
type System struct {
	mapper *memsys.HMCMapper
	cubes  []*Cube
	topo   Topology

	hostLink  *Link   // host <-> cube 0
	cubeLinks []*Link // star: cube0 <-> cube i; chain: cube i-1 <-> cube i (index 0 unused)

	// LocalAccesses / RemoteAccesses classify near-memory accesses for
	// Figure 13's locality ratio.
	LocalAccesses  uint64
	RemoteAccesses uint64
}

// NewSystem builds the Table 2 HMC system with the given cube-interleave
// shift (see memsys.NewHMCMapper) and cube topology (Star is the paper's).
// A non-nil inj injects faults into every link ("hmc/hostlink",
// "hmc/link<i>") and vault controller ("hmc/cube<c>/vault<v>"); nil means
// no faults.
func NewSystem(cubeShift uint, topo Topology, inj *fault.Injector) *System {
	m := memsys.NewHMCMapper(cubeShift)
	s := &System{mapper: m, topo: topo,
		hostLink: NewLink(DefaultLinkConfig(), inj, "hmc/hostlink")}
	for i := 0; i < m.Cubes; i++ {
		s.cubes = append(s.cubes, newCube(i, m, inj))
		s.cubeLinks = append(s.cubeLinks,
			NewLink(DefaultLinkConfig(), inj, fmt.Sprintf("hmc/link%d", i)))
	}
	return s
}

// FaultStats aggregates reliability counters across the whole system:
// link retransmissions and giveups, ECC corrections, and remapped banks.
func (s *System) FaultStats() (retries, giveups, eccCorrections uint64, remappedBanks int) {
	links := append([]*Link{s.hostLink}, s.cubeLinks[1:]...)
	for _, l := range links {
		retries += l.Retries
		giveups += l.RetryGiveups
	}
	for _, c := range s.cubes {
		for _, v := range c.Vaults() {
			ecc, _, rb, _ := v.FaultStats()
			eccCorrections += ecc
			remappedBanks += rb
		}
	}
	return
}

// Topology returns the cube interconnect shape.
func (s *System) Topology() Topology { return s.topo }

// routeDown sends a packet of n bytes from cube `from` toward cube `to`
// (both host-side direction semantics: DirDown moves away from the host),
// starting at t; returns arrival. from==to returns t.
func (s *System) routeDown(t sim.Time, from, to int, n uint32) sim.Time {
	if s.topo == Chain {
		for c := from + 1; c <= to; c++ {
			t = s.cubeLinks[c].TransferAt(t, DirDown, n)
		}
		for c := from; c > to; c-- {
			t = s.cubeLinks[c].TransferAt(t, DirUp, n)
		}
		return t
	}
	// Star: any cross-cube route passes the centre.
	if from == to {
		return t
	}
	if from != 0 {
		t = s.cubeLinks[from].TransferAt(t, DirUp, n)
	}
	if to != 0 {
		t = s.cubeLinks[to].TransferAt(t, DirDown, n)
	}
	return t
}

// routeUp is the response path (reverse direction semantics).
func (s *System) routeUp(t sim.Time, from, to int, n uint32) sim.Time {
	if s.topo == Chain {
		for c := from; c > to; c-- {
			t = s.cubeLinks[c].TransferAt(t, DirUp, n)
		}
		for c := from + 1; c <= to; c++ {
			t = s.cubeLinks[c].TransferAt(t, DirDown, n)
		}
		return t
	}
	if from == to {
		return t
	}
	if from != 0 {
		t = s.cubeLinks[from].TransferAt(t, DirUp, n)
	}
	if to != 0 {
		t = s.cubeLinks[to].TransferAt(t, DirDown, n)
	}
	return t
}

// Mapper returns the system's address mapping.
func (s *System) Mapper() *memsys.HMCMapper { return s.mapper }

// Cubes returns the cube models.
func (s *System) Cubes() []*Cube { return s.cubes }

// HostLink returns the host<->cube0 link.
func (s *System) HostLink() *Link { return s.hostLink }

// CubeLink returns the cube0<->cube i link (i in 1..3).
func (s *System) CubeLink(i int) *Link { return s.cubeLinks[i] }

// HostAccessAt reserves a host-path access starting no earlier than start:
// the request packet traverses the host link into cube 0, is routed to the
// home cube, accesses its vaults, and the response (header + data for
// reads) returns the same way. It returns the completion time: for reads,
// the response fully received by the host; for writes, the posted-write
// acknowledgement (the host-side controller acks once the packet is
// buffered onto the link — the full path is still reserved so the
// bandwidth is charged).
func (s *System) HostAccessAt(start sim.Time, kind memsys.Kind, addr uint64, size uint32) sim.Time {
	cube := s.mapper.Cube(addr)
	reqBytes := uint32(PacketOverhead)
	respBytes := uint32(PacketOverhead)
	if kind == memsys.Write {
		reqBytes += size
	} else {
		respBytes += size
	}
	// Host link down, then route to the home cube.
	posted := s.hostLink.TransferAt(start, DirDown, reqBytes)
	at := s.routeDown(posted, 0, cube, reqBytes)
	at = s.cubes[cube].AccessAt(at, kind, addr, size)
	// Response path back.
	at = s.routeUp(at, cube, 0, respBytes)
	at = s.hostLink.TransferAt(at, DirUp, respBytes)
	if kind == memsys.Write {
		return posted
	}
	return at
}

// NearAccessAt reserves an access issued by a processing unit on cube
// `from` starting no earlier than start. Local accesses use the cube's
// TSVs directly; remote accesses traverse the star (leaf→centre→leaf) and
// pay packet overhead both ways, but never touch the host link.
func (s *System) NearAccessAt(start sim.Time, from int, kind memsys.Kind, addr uint64, size uint32) sim.Time {
	home := s.mapper.Cube(addr)
	if home == from {
		s.LocalAccesses++
		return s.cubes[home].AccessAt(start, kind, addr, size)
	}
	s.RemoteAccesses++
	reqBytes := uint32(PacketOverhead)
	respBytes := uint32(PacketOverhead)
	if kind == memsys.Write {
		reqBytes += size
	} else {
		respBytes += size
	}
	at := s.routeDown(start, from, home, reqBytes)
	at = s.cubes[home].AccessAt(at, kind, addr, size)
	return s.routeUp(at, home, from, respBytes)
}

// LocalRatio returns the fraction of near-memory accesses serviced by the
// issuing cube (Figure 13's line series).
func (s *System) LocalRatio() float64 {
	total := s.LocalAccesses + s.RemoteAccesses
	if total == 0 {
		return 0
	}
	return float64(s.LocalAccesses) / float64(total)
}

// TSVStats sums internal traffic over all cubes.
func (s *System) TSVStats() memsys.Stats {
	var st memsys.Stats
	for _, c := range s.cubes {
		st.Add(c.TSVStats)
	}
	return st
}

// Collect publishes the whole system's counters under prefix (e.g.
// "hmc"): host link, inter-cube links, every cube, and the near-memory
// locality split. No-op when reg is disabled.
func (s *System) Collect(reg *metrics.Registry, prefix string, horizon sim.Time) {
	if !reg.Enabled() {
		return
	}
	s.hostLink.Collect(reg, prefix+"/hostlink", horizon)
	for i := 1; i < len(s.cubeLinks); i++ {
		s.cubeLinks[i].Collect(reg, fmt.Sprintf("%s/link%d", prefix, i), horizon)
	}
	for i, c := range s.cubes {
		c.Collect(reg, fmt.Sprintf("%s/cube%d", prefix, i), horizon)
	}
	reg.AddUint(prefix+"/local_accesses", s.LocalAccesses)
	reg.AddUint(prefix+"/remote_accesses", s.RemoteAccesses)
}

// VaultStats sums vault-level traffic over all cubes.
func (s *System) VaultStats() memsys.Stats {
	var st memsys.Stats
	for _, c := range s.cubes {
		for _, v := range c.Vaults() {
			st.Add(v.Stats)
		}
	}
	return st
}
