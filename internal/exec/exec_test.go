package exec

import (
	"testing"

	"charonsim/internal/charon"
	"charonsim/internal/gc"
	hp "charonsim/internal/heap"
	"charonsim/internal/hmc"
	"charonsim/internal/sim"
)

// record builds a collector over a small heap, runs a mixed workload and
// returns the recorded events plus the replay environment.
func record(t testing.TB, heapBytes uint64) ([]*gc.Event, Env) {
	tbl := hp.NewTable()
	node := tbl.Define(hp.Klass{Name: "Node", Kind: hp.KindInstance, InstanceWords: 8, RefOffsets: []int32{2, 3, 4}})
	arr := tbl.Define(hp.Klass{Name: "Object[]", Kind: hp.KindObjArray})
	data := tbl.Define(hp.Klass{Name: "byte[]", Kind: hp.KindTypeArray, ElemBytes: 1})

	h := hp.New(hp.DefaultConfig(heapBytes), tbl)
	c := gc.New(h)
	c.Recording = true

	// Long-lived graph: array of node chains plus data buffers.
	sidx := h.AddRoot(c.AllocArray(arr, 64))
	for i := 0; i < 64; i++ {
		n := c.AllocInstance(node)
		h.StoreRef(h.Root(sidx), hp.HeaderWords+i, n)
		d := c.AllocArray(data, 2048)
		spine := h.Root(sidx)
		head := h.LoadRef(spine, hp.HeaderWords+i)
		h.StoreRef(head, 2, d)
	}
	// Churn: short-lived allocations forcing several minor GCs.
	for i := 0; i < 20000; i++ {
		if c.AllocArray(data, 512) == 0 {
			t.Fatal("unexpected OOM")
		}
	}
	// One explicit full GC for major-phase coverage.
	c.MajorGC("test")
	if len(c.Log) < 2 {
		t.Fatalf("workload recorded only %d events", len(c.Log))
	}
	return c.Log, EnvFor(c)
}

// mustOpt is NewWithOptions for tests: any construction error is fatal.
func mustOpt(t testing.TB, kind Kind, env Env, threads int, opt Options) Platform {
	t.Helper()
	p, err := NewWithOptions(kind, env, threads, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stepFunc adapts a bare function to the stepper interface.
type stepFunc func(t sim.Time) stepResult

func (f stepFunc) step(t sim.Time) stepResult { return f(t) }

// oneShot wraps a whole-invocation execution as a single-step stepper.
func oneShot(fn func(t sim.Time) sim.Time) stepper {
	return stepFunc(func(t sim.Time) stepResult {
		return stepResult{t: fn(t), done: true}
	})
}

// runThreads runs one replay with throwaway scheduler scratch (platforms
// reuse their own replaySched).
func runThreads(start sim.Time, ev *gc.Event, nthreads int, mon *sim.Monitor,
	begin func(thread int, inv *gc.Invocation) stepper,
) (end sim.Time, prim [gc.NumPrims]sim.Time) {
	var s replaySched
	return s.run(start, ev, nthreads, mon, begin)
}

// replayAll sums durations over all events.
func replayAll(p Platform, evs []*gc.Event, threads int) (total sim.Time, prim [gc.NumPrims]sim.Time, last Result) {
	for _, ev := range evs {
		r := p.Replay(ev, threads)
		total += r.Duration
		for i := range prim {
			prim[i] += r.PrimTime[i]
		}
		last = r
	}
	return
}

func TestReplayAllPlatformsComplete(t *testing.T) {
	evs, env := record(t, 8<<20)
	for _, k := range []Kind{KindDDR4, KindHMC, KindCharon, KindCharonDistributed, KindCharonCPUSide, KindIdeal} {
		p := mustOpt(t, k, env, 8, Options{})
		total, prim, last := replayAll(p, evs, 8)
		if total == 0 {
			t.Fatalf("%v: zero duration", k)
		}
		var primSum sim.Time
		for _, v := range prim {
			primSum += v
		}
		if primSum == 0 {
			t.Fatalf("%v: no primitive attribution", k)
		}
		if last.Duration == 0 {
			t.Fatalf("%v: last event has no duration", k)
		}
	}
}

func TestPlatformOrdering(t *testing.T) {
	// The paper's Figure 12 ordering: Ideal <= Charon <= HMC <= DDR4.
	evs, env := record(t, 8<<20)
	dur := map[Kind]sim.Time{}
	for _, k := range []Kind{KindDDR4, KindHMC, KindCharon, KindIdeal} {
		total, _, _ := replayAll(mustOpt(t, k, env, 8, Options{}), evs, 8)
		dur[k] = total
	}
	if !(dur[KindIdeal] < dur[KindCharon] && dur[KindCharon] < dur[KindHMC] && dur[KindHMC] < dur[KindDDR4]) {
		t.Fatalf("ordering violated: Ideal=%v Charon=%v HMC=%v DDR4=%v",
			dur[KindIdeal], dur[KindCharon], dur[KindHMC], dur[KindDDR4])
	}
	// Headline shape: Charon speedup over DDR4 should be substantial (the
	// paper reports 3.29x geomean across workloads).
	speedup := float64(dur[KindDDR4]) / float64(dur[KindCharon])
	if speedup < 1.5 {
		t.Fatalf("Charon speedup only %.2fx", speedup)
	}
	hmcSpeedup := float64(dur[KindDDR4]) / float64(dur[KindHMC])
	if hmcSpeedup < 1.02 || hmcSpeedup > 2.5 {
		t.Fatalf("HMC-only speedup %.2fx outside plausible band (paper: 1.21x)", hmcSpeedup)
	}
}

func TestCopyPrimitiveSpeedup(t *testing.T) {
	// Figure 14: Copy gains the most from Charon (paper: 10.17x average).
	evs, env := record(t, 8<<20)
	_, primD, _ := replayAll(mustOpt(t, KindDDR4, env, 8, Options{}), evs, 8)
	_, primC, _ := replayAll(mustOpt(t, KindCharon, env, 8, Options{}), evs, 8)
	if primC[gc.PrimCopy] == 0 {
		t.Fatal("no copy time on Charon")
	}
	s := float64(primD[gc.PrimCopy]) / float64(primC[gc.PrimCopy])
	if s < 2 {
		t.Fatalf("Copy speedup %.2fx, expected the largest gain", s)
	}
}

func TestCPUSideSlowerThanNearMemory(t *testing.T) {
	// Figure 16: CPU-side Charon loses ~37% throughput vs memory-side.
	evs, env := record(t, 8<<20)
	near, _, _ := replayAll(mustOpt(t, KindCharon, env, 8, Options{}), evs, 8)
	cpuSide, _, _ := replayAll(mustOpt(t, KindCharonCPUSide, env, 8, Options{}), evs, 8)
	if cpuSide <= near {
		t.Fatalf("CPU-side (%v) should be slower than near-memory (%v)", cpuSide, near)
	}
	ratio := float64(near) / float64(cpuSide)
	if ratio < 0.3 || ratio > 0.99 {
		t.Fatalf("memory/CPU-side ratio %.2f outside plausible band", ratio)
	}
}

func TestCharonThreadScaling(t *testing.T) {
	// Figure 15: Charon scales with threads; DDR4 saturates early.
	evs, env := record(t, 8<<20)
	c1, _, _ := replayAll(mustOpt(t, KindCharon, env, 1, Options{}), evs, 1)
	c8, _, _ := replayAll(mustOpt(t, KindCharon, env, 8, Options{}), evs, 8)
	charonScale := float64(c1) / float64(c8)
	if charonScale < 1.5 {
		t.Fatalf("Charon thread scaling only %.2fx from 1 to 8 threads", charonScale)
	}
	d1, _, _ := replayAll(mustOpt(t, KindDDR4, env, 1, Options{}), evs, 1)
	d8, _, _ := replayAll(mustOpt(t, KindDDR4, env, 8, Options{}), evs, 8)
	ddrScale := float64(d1) / float64(d8)
	if ddrScale > charonScale {
		t.Fatalf("DDR4 scaled better (%.2fx) than Charon (%.2fx)", ddrScale, charonScale)
	}
}

func TestDistributedBeatsUnifiedAtHighThreads(t *testing.T) {
	evs, env := record(t, 8<<20)
	uni, _, _ := replayAll(mustOpt(t, KindCharon, env, 16, Options{}), evs, 16)
	dist, _, _ := replayAll(mustOpt(t, KindCharonDistributed, env, 16, Options{}), evs, 16)
	if dist > uni {
		t.Fatalf("distributed (%v) slower than unified (%v) at 16 threads", dist, uni)
	}
}

func TestLocalRatioInRange(t *testing.T) {
	evs, env := record(t, 8<<20)
	p := mustOpt(t, KindCharon, env, 8, Options{})
	for _, ev := range evs {
		r := p.Replay(ev, 8)
		if r.LocalRatio < 0 || r.LocalRatio > 1 {
			t.Fatalf("local ratio %v out of range", r.LocalRatio)
		}
	}
}

func TestTrafficAccounting(t *testing.T) {
	evs, env := record(t, 8<<20)
	p := mustOpt(t, KindCharon, env, 8, Options{})
	_, _, last := replayAll(p, evs, 8)
	if last.Traffic.Bytes() == 0 {
		t.Fatal("no traffic recorded")
	}
	if last.UnitBusy == 0 {
		t.Fatal("no unit busy time")
	}
	// Bandwidth during GC must exceed what DDR4's 34 GB/s could deliver
	// eventually; at minimum it must be positive and below internal caps.
	bw := last.Traffic.BandwidthGBs(last.Duration)
	if bw <= 0 || bw > 4*330 {
		t.Fatalf("implausible bandwidth %.1f GB/s", bw)
	}
}

func TestIdealIsLowerBound(t *testing.T) {
	evs, env := record(t, 8<<20)
	ideal, primI, _ := replayAll(mustOpt(t, KindIdeal, env, 8, Options{}), evs, 8)
	charonT, _, _ := replayAll(mustOpt(t, KindCharon, env, 8, Options{}), evs, 8)
	if ideal >= charonT {
		t.Fatalf("ideal (%v) not faster than Charon (%v)", ideal, charonT)
	}
	for _, prim := range []gc.Prim{gc.PrimCopy, gc.PrimSearch, gc.PrimScanPush, gc.PrimBitmapCount} {
		if primI[prim] != 0 {
			t.Fatalf("ideal charged time to offloadable prim %v", prim)
		}
	}
}

func TestBreakdownDominatedByKeyPrimitives(t *testing.T) {
	// Figure 4's qualitative claim: the offloadable primitives dominate GC
	// time on the host.
	evs, env := record(t, 8<<20)
	_, prim, _ := replayAll(mustOpt(t, KindDDR4, env, 8, Options{}), evs, 8)
	var total, key sim.Time
	for p, v := range prim {
		total += v
		if gc.Prim(p).Offloadable() {
			key += v
		}
	}
	frac := float64(key) / float64(total)
	if frac < 0.5 {
		t.Fatalf("offloadable primitives only %.0f%% of host GC time", frac*100)
	}
}

func TestThreadPartitionCoversAllInvocations(t *testing.T) {
	evs, env := record(t, 4<<20)
	ev := evs[0]
	seen := 0
	runThreads(0, ev, 3, nil, func(thread int, inv *gc.Invocation) stepper {
		return oneShot(func(tm sim.Time) sim.Time {
			seen++
			return tm + 1
		})
	})
	if seen != len(ev.Invocations) {
		t.Fatalf("executed %d of %d invocations", seen, len(ev.Invocations))
	}
	_ = env
}

func TestKindString(t *testing.T) {
	if KindDDR4.String() != "DDR4" || KindCharon.String() != "Charon" || Kind(99).String() == "" {
		t.Fatal("kind names")
	}
}

func BenchmarkReplayCharon(b *testing.B) {
	evs, env := record(b, 8<<20)
	p := mustOpt(b, KindCharon, env, 8, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Replay(evs[i%len(evs)], 8)
	}
}

func TestNewWithOptionsFillsDefaults(t *testing.T) {
	evs, env := record(t, 8<<20)
	// A partial config (only MAI set) must still work with all other
	// fields defaulted.
	cfg := charon.Config{MAIEntries: 8}
	p := mustOpt(t, KindCharon, env, 8, Options{CharonConfig: &cfg})
	r := p.Replay(evs[0], 8)
	if r.Duration == 0 {
		t.Fatal("no duration with partial config")
	}
	// Fewer MAI entries should not be faster than the default.
	pd := mustOpt(t, KindCharon, env, 8, Options{})
	rd := pd.Replay(evs[0], 8)
	if r.Duration < rd.Duration {
		t.Fatalf("MAI=8 (%v) faster than MAI=32 (%v)", r.Duration, rd.Duration)
	}
}

func TestTopologyOptionAffectsCharon(t *testing.T) {
	evs, env := record(t, 8<<20)
	star, _, _ := replayAll(mustOpt(t, KindCharon, env, 8, Options{Topology: hmc.Star}), evs, 8)
	chain, _, _ := replayAll(mustOpt(t, KindCharon, env, 8, Options{Topology: hmc.Chain}), evs, 8)
	if star == chain {
		t.Fatal("topology had no effect at all")
	}
	// The chain's longer remote paths should not make things faster.
	if float64(chain) < float64(star)*0.98 {
		t.Fatalf("chain (%v) implausibly faster than star (%v)", chain, star)
	}
}
