package experiments

import (
	"strings"
	"sync"
	"testing"

	"charonsim/internal/exec"
	"charonsim/internal/fault"
)

// TestForEachPanicRecovery: a panicking run becomes that index's error —
// with the stack attached — instead of crashing the sweep, at every
// parallelism level, and the other indices still run.
func TestForEachPanicRecovery(t *testing.T) {
	for _, par := range []int{1, 4} {
		var mu sync.Mutex
		ran := map[int]bool{}
		err := Config{Parallelism: par}.forEach(8, func(i int) error {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			if i == 2 {
				panic("invariant tripped")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("par=%d: panic swallowed", par)
		}
		if !strings.Contains(err.Error(), "run 2 panicked: invariant tripped") {
			t.Fatalf("par=%d: error %q missing panic provenance", par, err)
		}
		if !strings.Contains(err.Error(), "goroutine") {
			t.Fatalf("par=%d: error missing stack trace", par)
		}
		if par > 1 && len(ran) != 8 {
			t.Fatalf("par=%d: a panic stopped other runs (%d/8 ran)", par, len(ran))
		}
	}
}

// TestReplayFaultZeroConfigIsReplay: replaying with a zero (disabled)
// fault config takes the plain platform path — per-event results exactly
// equal to Replay on a fault-free session.
func TestReplayFaultZeroConfigIsReplay(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"BS"}})
	r, err := s.Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.Replay(r, exec.KindCharon, 8)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := s.replayFault(r, exec.KindCharon, 8, fault.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(zero) {
		t.Fatalf("event counts differ: %d vs %d", len(plain), len(zero))
	}
	for i := range plain {
		if plain[i] != zero[i] {
			t.Fatalf("event %d diverged:\nplain: %+v\nzero:  %+v", i, plain[i], zero[i])
		}
	}
}
