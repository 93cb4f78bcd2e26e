package fault

import (
	"testing"
	"time"
)

func TestDisabledInjectorIsNil(t *testing.T) {
	if in := New(Config{}); in != nil {
		t.Fatalf("zero Config must yield a nil injector, got %+v", in)
	}
	if in := New(Config{Seed: 42}); in != nil {
		t.Fatalf("seed without rates must stay disabled, got %+v", in)
	}
}

func TestNilSafety(t *testing.T) {
	var in *Injector
	src := in.Source("any")
	if src != nil {
		t.Fatalf("nil injector must hand out nil sources")
	}
	if src.Hit(0.999) {
		t.Fatalf("nil source must never fire")
	}
	if got := in.Config(); got != (Config{}) {
		t.Fatalf("nil injector Config = %+v, want zero", got)
	}
}

func TestEnabledVariants(t *testing.T) {
	cases := []struct {
		cfg  Config
		want bool
	}{
		{Config{}, false},
		{Config{Rate: 0.01}, true},
		{Config{FailAllUnits: true}, true},
		{Config{Seed: 9}, false},
	}
	for _, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("Enabled(%+v) = %v, want %v", c.cfg, got, c.want)
		}
	}
}

// TestDefaultsDerivation: every per-class rate derives from Rate by its
// fixed ratio.
func TestDefaultsDerivation(t *testing.T) {
	cfg := New(Config{Rate: 0.08}).Config()
	if got := cfg.LinkCRCRate(); got != 0.08 {
		t.Errorf("LinkCRCRate = %v, want master rate", got)
	}
	if got := cfg.ECCRate(); got != 0.02 {
		t.Errorf("ECCRate = %v, want Rate/4", got)
	}
	if got := cfg.HardBankRate(); got != 0.08/64 {
		t.Errorf("HardBankRate = %v, want Rate/64", got)
	}
	if got := cfg.UnitFailRate(); got != 0.01 {
		t.Errorf("UnitFailRate = %v, want Rate/8", got)
	}
	if got := cfg.UnitDegradeRate(); got != 0.02 {
		t.Errorf("UnitDegradeRate = %v, want Rate/4", got)
	}
}

func TestSourceDeterminism(t *testing.T) {
	draws := func(seed int64, name string, n int) []bool {
		src := New(Config{Rate: 0.3, Seed: seed}).Source(name)
		out := make([]bool, n)
		for i := range out {
			out[i] = src.Hit(0.3)
		}
		return out
	}
	a, b := draws(7, "hmc/link0", 256), draws(7, "hmc/link0", 256)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed+name diverged at draw %d", i)
		}
	}
	c := draws(8, "hmc/link0", 256)
	d := draws(7, "hmc/link1", 256)
	differs := func(x []bool) bool {
		for i := range a {
			if a[i] != x[i] {
				return true
			}
		}
		return false
	}
	if !differs(c) {
		t.Fatalf("different seeds produced identical 256-draw streams")
	}
	if !differs(d) {
		t.Fatalf("different source names produced identical 256-draw streams")
	}
}

func TestHitRateRoughlyCalibrated(t *testing.T) {
	src := New(Config{Rate: 0.25, Seed: 11}).Source("calibration")
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if src.Hit(0.25) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.24 || got > 0.26 {
		t.Fatalf("empirical hit rate %v, want ~0.25", got)
	}
}

func TestZeroProbabilityConsumesNoDraw(t *testing.T) {
	a := New(Config{Rate: 0.5, Seed: 1}).Source("s")
	b := New(Config{Rate: 0.5, Seed: 1}).Source("s")
	for i := 0; i < 64; i++ {
		a.Hit(0) // must not advance the stream
		if a.Hit(0.5) != b.Hit(0.5) {
			t.Fatalf("Hit(0) consumed a draw (diverged at %d)", i)
		}
	}
}

// TestBackoffShiftCap: the exponent saturates at 6, so absurd attempt
// counts can neither overflow into negative waits nor escape 64x base,
// and the jitter term spans [0, 50%) of the doubled base.
func TestBackoffShiftCap(t *testing.T) {
	base := 100 * time.Millisecond
	cases := []struct {
		attempt int
		frac    float64
		want    time.Duration
	}{
		{0, 0, 100 * time.Millisecond},
		{1, 0.5, 250 * time.Millisecond},
		{6, 0, 6400 * time.Millisecond},
		{7, 0, 6400 * time.Millisecond},
		{20, 0.5, 8 * time.Second},
		{64, 0, 6400 * time.Millisecond},
		{1000, 1, 9600 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := Backoff(base, tc.attempt, tc.frac); got != tc.want {
			t.Errorf("Backoff(%v, %d, %v) = %v, want %v", base, tc.attempt, tc.frac, got, tc.want)
		}
	}
}
