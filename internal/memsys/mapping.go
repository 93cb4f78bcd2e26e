package memsys

import "fmt"

// BankCoord identifies a unique DRAM bank (or HMC vault bank) plus the row
// within it. Channel doubles as the HMC cube index and Rank as the vault
// index when used with the HMC mapping.
type BankCoord struct {
	Channel int // DDR4 channel / HMC cube
	Rank    int // DDR4 rank / HMC vault
	Bank    int
	Row     uint64
}

// Mapper translates a physical byte address to a bank coordinate.
type Mapper interface {
	Map(addr uint64) BankCoord
	// Geometry returns (channels, ranksPerChannel, banksPerRank).
	Geometry() (channels, ranks, banks int)
}

// DDR4Mapper implements the paper's DDR4 interleaving [row:col:bank:rank:ch]:
// the channel is selected by the lowest line-granularity bits, then rank,
// then bank, then column within the row, then row. Table 2: 32 GB, 2
// channels, 4 ranks per channel, 8 banks per rank.
type DDR4Mapper struct {
	LineSize uint64 // interleave granularity between channels (bytes)
	Channels int
	Ranks    int
	Banks    int
	RowBytes uint64 // row-buffer size per bank

	// Shift/mask decomposition of the geometry, valid when pow2 is set
	// (precomputed by the constructor). Map sits on the per-line hot path
	// of every DRAM access, and the compiler cannot strength-reduce
	// divisions by non-constant fields on its own.
	pow2                 bool
	shLine, shCh, shRank uint
	shBank, shRow        uint
}

// NewDDR4Mapper returns the Table 2 DDR4 geometry: 2 channels, 4 ranks,
// 8 banks, 8 KB row buffers, 64 B channel interleave.
func NewDDR4Mapper() *DDR4Mapper {
	m := &DDR4Mapper{LineSize: 64, Channels: 2, Ranks: 4, Banks: 8, RowBytes: 8192}
	m.precompute()
	return m
}

// precompute derives the shift decomposition when every geometry
// parameter is a power of two. Mappers built as struct literals skip this
// and Map falls back to the division path (identical results).
func (m *DDR4Mapper) precompute() {
	shLine, ok1 := log2u64(m.LineSize)
	shCh, ok2 := log2u64(uint64(m.Channels))
	shRank, ok3 := log2u64(uint64(m.Ranks))
	shBank, ok4 := log2u64(uint64(m.Banks))
	shRowB, ok5 := log2u64(m.RowBytes)
	if !(ok1 && ok2 && ok3 && ok4 && ok5) || shRowB < shLine {
		return
	}
	m.shLine, m.shCh, m.shRank, m.shBank = shLine, shCh, shRank, shBank
	m.shRow = shRowB - shLine // log2(lines per row)
	m.pow2 = true
}

// Geometry implements Mapper.
func (m *DDR4Mapper) Geometry() (int, int, int) { return m.Channels, m.Ranks, m.Banks }

// Map implements Mapper.
func (m *DDR4Mapper) Map(addr uint64) BankCoord {
	if m.pow2 {
		a := addr >> m.shLine
		ch := a & (1<<m.shCh - 1)
		a >>= m.shCh
		rank := a & (1<<m.shRank - 1)
		a >>= m.shRank
		bank := a & (1<<m.shBank - 1)
		a >>= m.shBank
		return BankCoord{Channel: int(ch), Rank: int(rank), Bank: int(bank), Row: a >> m.shRow}
	}
	a := addr / m.LineSize
	ch := a % uint64(m.Channels)
	a /= uint64(m.Channels)
	rank := a % uint64(m.Ranks)
	a /= uint64(m.Ranks)
	bank := a % uint64(m.Banks)
	a /= uint64(m.Banks)
	// a now counts LineSize units within this bank; fold into rows.
	linesPerRow := m.RowBytes / m.LineSize
	row := a / linesPerRow
	return BankCoord{Channel: int(ch), Rank: int(rank), Bank: int(bank), Row: row}
}

// log2u64 returns log2(v) when v is a power of two.
func log2u64(v uint64) (uint, bool) {
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

// HMCMapper implements the paper's HMC interleaving
// [cube[hi]:row:col:bank:rank:vault]: the cube is selected by high address
// bits so that huge pages interleave across cubes (the paper uses physical
// bits 31:30, i.e. 1 GB granularity, for full-scale heaps; scaled-down
// experiments lower CubeShift proportionally), and within a cube vaults
// occupy the lowest interleave bits. Table 2: 32 GB, 4 cubes, 32 vaults
// per cube.
type HMCMapper struct {
	Cubes      int
	CubeShift  uint // log2 of the cube-interleave granularity
	Vaults     int
	VaultGrain uint64 // vault interleave granularity (bytes)
	Banks      int
	RowBytes   uint64

	// Shift/mask decomposition, valid when pow2 is set (constructor-built
	// mappers only; see DDR4Mapper.precompute for rationale).
	pow2                   bool
	shCubes, shGrain       uint
	shVault, shBank, shRow uint
}

// NewHMCMapper returns the Table 2 HMC geometry with the given cube-select
// shift (30 for the paper's 1 GB huge pages; experiments at scaled heap
// sizes pass a smaller shift so that the heap still spans all cubes).
// Vaults occupy the lowest interleave position of the paper's mapping
// ([..:bank:rank:vault]), at cache-line (64 B) granularity, so sequential
// streams spread across all 32 vaults and a 256 B Charon request is
// serviced by four vaults in parallel.
func NewHMCMapper(cubeShift uint) *HMCMapper {
	m := &HMCMapper{Cubes: 4, CubeShift: cubeShift, Vaults: 32, VaultGrain: 64, Banks: 8, RowBytes: 4096}
	m.precompute()
	return m
}

// precompute derives the shift decomposition when every geometry
// parameter is a power of two.
func (m *HMCMapper) precompute() {
	shCubes, ok1 := log2u64(uint64(m.Cubes))
	shGrain, ok2 := log2u64(m.VaultGrain)
	shVault, ok3 := log2u64(uint64(m.Vaults))
	shBank, ok4 := log2u64(uint64(m.Banks))
	shRowB, ok5 := log2u64(m.RowBytes)
	if !(ok1 && ok2 && ok3 && ok4 && ok5) || shRowB < shGrain {
		return
	}
	m.shCubes, m.shGrain, m.shVault, m.shBank = shCubes, shGrain, shVault, shBank
	m.shRow = shRowB - shGrain // log2(grains per row)
	m.pow2 = true
}

// Geometry implements Mapper. Channels = cubes, ranks = vaults.
func (m *HMCMapper) Geometry() (int, int, int) { return m.Cubes, m.Vaults, m.Banks }

// Cube returns only the cube index for addr (used for offload scheduling:
// Copy is dispatched to the cube housing its source address).
func (m *HMCMapper) Cube(addr uint64) int {
	if m.pow2 {
		return int((addr >> m.CubeShift) & (1<<m.shCubes - 1))
	}
	return int((addr >> m.CubeShift) % uint64(m.Cubes))
}

// Map implements Mapper.
func (m *HMCMapper) Map(addr uint64) BankCoord {
	if m.pow2 {
		cube := int((addr >> m.CubeShift) & (1<<m.shCubes - 1))
		low := addr & (1<<m.CubeShift - 1)
		high := (addr >> m.CubeShift) >> m.shCubes << m.CubeShift
		a := (high | low) >> m.shGrain
		vault := a & (1<<m.shVault - 1)
		a >>= m.shVault
		bank := a & (1<<m.shBank - 1)
		a >>= m.shBank
		return BankCoord{Channel: cube, Rank: int(vault), Bank: int(bank), Row: a >> m.shRow}
	}
	cube := m.Cube(addr)
	// Remove the cube-select bits, collapsing the address within the cube.
	low := addr & ((1 << m.CubeShift) - 1)
	high := (addr >> m.CubeShift) / uint64(m.Cubes) << m.CubeShift
	a := (high | low) / m.VaultGrain
	vault := a % uint64(m.Vaults)
	a /= uint64(m.Vaults)
	bank := a % uint64(m.Banks)
	a /= uint64(m.Banks)
	grainsPerRow := m.RowBytes / m.VaultGrain
	row := a / grainsPerRow
	return BankCoord{Channel: cube, Rank: int(vault), Bank: int(bank), Row: row}
}

// String renders a coordinate for debugging.
func (c BankCoord) String() string {
	return fmt.Sprintf("ch%d/rk%d/bk%d/row%d", c.Channel, c.Rank, c.Bank, c.Row)
}

// SplitBursts splits a request's byte range into per-burst (or per-grain)
// aligned chunks of at most grain bytes, calling fn for each chunk. Memory
// controllers use this to turn a large (up to 256 B) access into individual
// bank bursts.
func SplitBursts(addr uint64, size uint32, grain uint64, fn func(addr uint64, size uint32)) {
	end := addr + uint64(size)
	for addr < end {
		next := (addr/grain + 1) * grain
		if next > end {
			next = end
		}
		fn(addr, uint32(next-addr))
		addr = next
	}
}

// BankRemap is a per-controller redirection table for hard-faulted banks:
// accesses addressed to a dead bank are steered onto a designated healthy
// neighbour (the spare-decoder trick real controllers use). An identity
// table (or nil slice) means every bank is healthy.
type BankRemap struct {
	to []int
}

// NewBankRemap builds a remap table over nbanks banks. faulted reports,
// per bank index, whether that bank is hard-faulted; each faulted bank is
// redirected to the next healthy bank (wrapping). If every bank is faulted
// the table degenerates to identity — there is nowhere left to remap, and
// modelling a wholly dead channel is out of scope.
func NewBankRemap(nbanks int, faulted func(bank int) bool) *BankRemap {
	dead := make([]bool, nbanks)
	any, all := false, true
	for i := 0; i < nbanks; i++ {
		dead[i] = faulted(i)
		any = any || dead[i]
		all = all && dead[i]
	}
	if !any {
		return nil
	}
	r := &BankRemap{to: make([]int, nbanks)}
	for i := range r.to {
		r.to[i] = i
		if dead[i] && !all {
			for d := 1; d < nbanks; d++ {
				j := (i + d) % nbanks
				if !dead[j] {
					r.to[i] = j
					break
				}
			}
		}
	}
	return r
}

// Bank returns the bank actually serving accesses addressed to bank.
// Nil-safe: a nil remap is the identity.
func (r *BankRemap) Bank(bank int) int {
	if r == nil || bank < 0 || bank >= len(r.to) {
		return bank
	}
	return r.to[bank]
}

// Remapped counts banks redirected away from their home index.
func (r *BankRemap) Remapped() int {
	if r == nil {
		return 0
	}
	n := 0
	for i, t := range r.to {
		if t != i {
			n++
		}
	}
	return n
}
