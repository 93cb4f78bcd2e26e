package exec

import (
	"testing"

	"charonsim/internal/cpu"
	"charonsim/internal/dram"
	"charonsim/internal/hmc"
	"charonsim/internal/sim"
)

// TestDiagHostHMCvsDDR4 replays three synthetic op streams — sequential
// lines, independent random lines, and a dependent pointer chase — on
// one and eight host cores over DDR4 and over the HMC host path, and pins
// the relations Figure 12's baseline rests on.
//
// The cores share one backend and are interleaved in global time order at
// 8-op granularity (as the replay scheduler does), so the eight-core runs
// measure contention on the shared memory, and every reservation lands
// inside the calendars' windows.
func TestDiagHostHMCvsDDR4(t *testing.T) {
	mkOps := func(n int, stride uint64, dep bool) []cpu.Op {
		var ops []cpu.Op
		for i := 0; i < n; i++ {
			d := cpu.NoDep
			if dep && i > 0 {
				d = int32(i - 1)
			}
			ops = append(ops, cpu.Op{Kind: cpu.OpRead, Addr: uint64(i) * stride, Size: 8, Dep: d})
		}
		return ops
	}
	run := func(mk func() cpu.MemBackend, ops []cpu.Op, ncores int) sim.Time {
		h := cpu.NewHost(ncores, cpu.DefaultConfig(), mk())
		// Deps index the whole stream, so every batch of a core resolves
		// them against the core's stream position at the start.
		streams := make([][]cpu.Op, ncores)
		bases := make([]int, ncores)
		for c := range streams {
			streams[c] = append([]cpu.Op(nil), ops...)
			for i := range streams[c] {
				streams[c][i].Addr += uint64(c) * (1 << 26)
			}
			bases[c] = h.Cores[c].StreamPos()
		}
		const batch = 8
		var last sim.Time
		for {
			// The core furthest behind in time runs its next batch.
			next := -1
			for c, s := range streams {
				if len(s) > 0 && (next < 0 || h.Cores[c].Cursor() < h.Cores[next].Cursor()) {
					next = c
				}
			}
			if next < 0 {
				return last
			}
			n := min(batch, len(streams[next]))
			if f := h.Cores[next].ExecBatch(0, streams[next][:n], bases[next]); f > last {
				last = f
			}
			streams[next] = streams[next][n:]
		}
	}
	ddr := func() cpu.MemBackend { return dram.NewDDR4(nil) }
	hmcB := func() cpu.MemBackend { return hostHMCBackend{hmc.NewSystem(CubeShift, hmc.Star, nil)} }

	clamped := sim.ClampedReservations()
	type result struct{ ddr, hmc sim.Time }
	times := map[string][2]result{} // pattern -> [1 core, 8 cores]
	for name, ops := range map[string][]cpu.Op{
		"seq":   mkOps(20000, 64, false),
		"rnd":   mkOps(5000, 4096+64, false),
		"chase": mkOps(2000, 4096+64, true),
	} {
		var r [2]result
		for i, ncores := range []int{1, 8} {
			r[i] = result{run(ddr, ops, ncores), run(hmcB, ops, ncores)}
			t.Logf("%-5s cores=%d  DDR4 %8.1f us  HMC %8.1f us", name, ncores,
				r[i].ddr.Seconds()*1e6, r[i].hmc.Seconds()*1e6)
		}
		times[name] = r
	}
	if n := sim.ClampedReservations() - clamped; n != 0 {
		t.Fatalf("%d reservations landed behind a calendar window", n)
	}

	for name, r := range times {
		for _, b := range []struct {
			mem    string
			t1, t8 sim.Time
		}{{"DDR4", r[0].ddr, r[1].ddr}, {"HMC", r[0].hmc, r[1].hmc}} {
			// Sharing the memory never makes a core faster.
			if b.t8 < b.t1 {
				t.Errorf("%s %s: 8 cores finish at %v, before 1 core's %v", b.mem, name, b.t8, b.t1)
			}
			switch name {
			case "seq":
				// The prefetcher lets one core saturate the memory
				// bandwidth, so eight streams serialize on it.
				if b.t8 < 7*b.t1 {
					t.Errorf("%s seq: 8 cores take %v, under 7x one core's %v", b.mem, b.t8, b.t1)
				}
			case "rnd":
				// Latency-bound misses overlap across cores.
				if b.t8 >= 8*b.t1 {
					t.Errorf("%s rnd: 8 cores take %v, not under 8x one core's %v", b.mem, b.t8, b.t1)
				}
			case "chase":
				// Eight independent chains barely contend.
				if b.t8 >= 2*b.t1 {
					t.Errorf("%s chase: 8 cores take %v, not under 2x one core's %v", b.mem, b.t8, b.t1)
				}
			}
		}
	}
	// One core: the HMC host path wins on streaming (prefetched, link
	// bandwidth) and loses on latency-bound random and dependent accesses.
	if r := times["seq"][0]; r.hmc >= r.ddr {
		t.Errorf("seq, 1 core: HMC %v not faster than DDR4 %v", r.hmc, r.ddr)
	}
	for _, name := range []string{"rnd", "chase"} {
		if r := times[name][0]; r.ddr >= r.hmc {
			t.Errorf("%s, 1 core: DDR4 %v not faster than HMC %v", name, r.ddr, r.hmc)
		}
	}
	// Eight cores of random misses: the cube's vault parallelism beats the
	// DDR4 channel.
	if r := times["rnd"][1]; r.hmc >= r.ddr {
		t.Errorf("rnd, 8 cores: HMC %v not faster than DDR4 %v", r.hmc, r.ddr)
	}
}
