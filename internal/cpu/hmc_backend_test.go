package cpu

import (
	"charonsim/internal/hmc"
	"charonsim/internal/memsys"
	"charonsim/internal/sim"
)

// hmcBackend adapts hmc.System's host path to the MemBackend interface.
type hmcBackend struct{ sys *hmc.System }

func newHMCBackend() MemBackend {
	return hmcBackend{sys: hmc.NewSystem(22, hmc.Star, nil)}
}

func (b hmcBackend) AccessAt(start sim.Time, kind memsys.Kind, addr uint64, size uint32) sim.Time {
	return b.sys.HostAccessAt(start, kind, addr, size)
}
