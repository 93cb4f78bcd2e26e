package hmc

import (
	"testing"

	"charonsim/internal/fault"
	"charonsim/internal/sim"
)

// faultyLink builds a link that draws CRC errors at cfg's rate.
func faultyLink(t *testing.T, cfg fault.Config) *Link {
	t.Helper()
	inj := fault.New(cfg)
	if inj == nil {
		t.Fatal("injector unexpectedly disabled")
	}
	return NewLink(DefaultLinkConfig(), inj, "hmc/hostlink")
}

func TestLinkRetryAccounting(t *testing.T) {
	l := faultyLink(t, fault.Config{Rate: 0.5, Seed: 3})
	const n, size = 400, 80
	var last sim.Time
	for i := 0; i < n; i++ {
		last = l.TransferAt(0, DirDown, size)
	}
	if l.Retries == 0 {
		t.Fatal("50% CRC rate produced zero retries over 400 packets")
	}
	// Stats must hold exactly the logical packets: retransmissions are
	// transport noise, not delivered payload.
	if l.Stats.Writes != n || l.Stats.WriteBytes != n*size {
		t.Fatalf("logical stats = %d pkts / %d bytes, want %d / %d",
			l.Stats.Writes, l.Stats.WriteBytes, n, n*size)
	}
	if l.RetransBytes != l.Retries*size {
		t.Fatalf("RetransBytes = %d, want Retries*size = %d", l.RetransBytes, l.Retries*size)
	}
	// Occupancy covers logical + retransmitted serialization and never
	// exceeds the horizon; utilization stays a valid fraction.
	wantBusy := l.serTime(size) * sim.Time(n+int(l.Retries))
	if l.Busy(DirDown) != wantBusy {
		t.Fatalf("lane busy = %v, want %v", l.Busy(DirDown), wantBusy)
	}
	if u := l.Utilization(DirDown, last); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v, want (0, 1]", u)
	}
	if l.RetryDelay == 0 {
		t.Fatal("retries charged no delivery delay")
	}
}

func TestLinkRetrySlowsDelivery(t *testing.T) {
	healthy := NewLink(DefaultLinkConfig(), nil, "")
	faulty := faultyLink(t, fault.Config{Rate: 0.9, Seed: 1})
	var h, f sim.Time
	for i := 0; i < 100; i++ {
		h = healthy.TransferAt(0, DirDown, 80)
		f = faulty.TransferAt(0, DirDown, 80)
	}
	if f <= h {
		t.Fatalf("90%% CRC rate delivery %v not slower than healthy %v", f, h)
	}
}

func TestLinkRetryBudgetGiveup(t *testing.T) {
	// Near-certain CRC errors: a packet whose retransmissions all fail
	// too gives up after the budget, and is delivered anyway.
	l := faultyLink(t, fault.Config{Rate: 0.99, Seed: 5})
	const n = 50
	for i := 0; i < n; i++ {
		l.TransferAt(0, DirUp, 80)
	}
	if l.RetryGiveups == 0 {
		t.Fatal("99% error rate never exhausted the retry budget")
	}
	if l.Retries > fault.RetryBudget*n || l.Retries < fault.RetryBudget*l.RetryGiveups {
		t.Fatalf("Retries = %d for %d give-ups over %d packets, want %d per give-up and at most %d per packet",
			l.Retries, l.RetryGiveups, n, fault.RetryBudget, fault.RetryBudget)
	}
	if l.Stats.Reads != n {
		t.Fatalf("delivered %d packets, want %d", l.Stats.Reads, n)
	}
}

func TestLinkRetryDeterminism(t *testing.T) {
	run := func(seed int64) []sim.Time {
		l := faultyLink(t, fault.Config{Rate: 0.3, Seed: seed})
		out := make([]sim.Time, 64)
		for i := range out {
			out[i] = l.TransferAt(0, DirDown, 128)
		}
		return out
	}
	a, b, c := run(9), run(9), run(10)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at packet %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced identical delivery schedules")
	}
}

func TestSystemFaultStatsAggregate(t *testing.T) {
	inj := fault.New(fault.Config{Rate: 0.2, Seed: 4})
	s := NewSystem(testCubeShift, Star, inj)
	for i := 0; i < 200; i++ {
		s.HostAccessAt(0, 0, uint64(i)*64, 64) // memsys.Read == 0
	}
	retries, _, ecc, remapped := s.FaultStats()
	if retries == 0 {
		t.Fatal("no link retries at 20% CRC rate")
	}
	if ecc == 0 {
		t.Fatal("no ECC corrections at 5% ECC rate over 200 reads")
	}
	if remapped == 0 {
		t.Fatal("seed drew no hard bank fault at Rate/64 over 1024 banks")
	}
}
