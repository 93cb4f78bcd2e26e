// The race detector makes sync.Pool drop items at random, so allocation
// counts of the pooled walk mean nothing under -race.

//go:build !race

package exec

import (
	"testing"

	"charonsim/internal/gc"
)

// TestHostReplayAllocBudget: a warmed host replay allocates a fixed
// amount per event (the producers' goroutines and their stop signal),
// not an amount that grows with the event, since walk chunks come from a
// process-wide pool.
func TestHostReplayAllocBudget(t *testing.T) {
	evs, env := record(t, 4<<20)
	edge := withChunkEdges(evs, env)
	small, big := evs[0], edge[len(edge)-1]
	for _, ev := range evs {
		if len(ev.Invocations) < len(small.Invocations) {
			small = ev
		}
	}
	const nthreads = 8
	const budget = 2*nthreads + 4
	for _, ev := range []*gc.Event{small, big} {
		p := New(KindDDR4, env, nthreads)
		p.Replay(ev, nthreads)
		if allocs := testing.AllocsPerRun(5, func() { p.Replay(ev, nthreads) }); allocs > budget {
			t.Fatalf("warmed replay of %d invocations allocates %.1f per event, budget %d",
				len(ev.Invocations), allocs, budget)
		}
	}
}
