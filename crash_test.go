package charonsim

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"charonsim/internal/atomicio"
	"charonsim/internal/checkpoint"
)

// TestCrashAtEveryCheckpointWrite crashes a checkpointed run of fig12 on
// BS after every unit checkpoint it writes, as a killed `charonsim
// -checkpoint-dir` leaves its directory, and resumes over that directory.
// Serial replay fixes the landing order. For each k the first k writes
// land and every later one is refused at its create; the resume, on the
// same filesystem switched off, reports the bytes of a run that never
// crashed, publishes exactly the units that did not land and none of
// those that did.
func TestCrashAtEveryCheckpointWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("replays fig12 on BS twice per write")
	}
	cfg := Config{Workloads: []string{"BS"}, Parallelism: -1}
	golden, err := Run("fig12", cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(dir string, fsys *atomicio.FailFS) string {
		t.Helper()
		st, err := checkpoint.OpenFS(dir, fsys)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunContext(checkpoint.WithStore(context.Background(), st), "fig12", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Text
	}

	fsys := &atomicio.FailFS{Fail: atomicio.FailCreate, After: math.MaxInt}
	if text := run(t.TempDir(), fsys); text != golden.Text {
		t.Fatal("an uncrashed checkpointed run differs from a run without a store")
	}
	all := unitNames(fsys.Published())
	if len(all) == 0 {
		t.Fatal("the run wrote no unit checkpoint")
	}
	t.Logf("%d unit checkpoints", len(all))

	for k := 0; k <= len(all); k++ {
		dir := t.TempDir()
		fsys := &atomicio.FailFS{Fail: atomicio.FailCreate, After: k}
		run(dir, fsys)
		landed := fsys.Published()
		fsys.Off.Store(true)
		if text := run(dir, fsys); text != golden.Text {
			t.Fatalf("k=%d: the resumed report differs from the uncrashed run's", k)
		}
		before, after := unitNames(landed), unitNames(fsys.Published()[len(landed):])
		if len(before) != k {
			t.Fatalf("k=%d: %d units landed before the crash", k, len(before))
		}
		for name := range after {
			if before[name] {
				t.Fatalf("k=%d: the resume published landed unit %s again", k, name)
			}
		}
		for name := range all {
			if !before[name] && !after[name] {
				t.Fatalf("k=%d: the resume did not publish unit %s, which had not landed", k, name)
			}
		}
		if len(before)+len(after) != len(all) {
			t.Fatalf("k=%d: %d units landed and the resume wrote %d, want %d in all", k, len(before), len(after), len(all))
		}
	}
}

// unitNames returns the set of entry file names among published: a unit's
// content address, the same in every directory.
func unitNames(published []atomicio.Published) map[string]bool {
	names := map[string]bool{}
	for _, p := range published {
		names[filepath.Base(p.Path)] = true
	}
	return names
}
