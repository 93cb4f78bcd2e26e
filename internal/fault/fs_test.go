package fault

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"charonsim/internal/atomicio"
)

func writeThrough(t *testing.T, fsys atomicio.FS, dir, name, data string) error {
	t.Helper()
	return atomicio.WriteFileBytesFS(fsys, filepath.Join(dir, name), []byte(data))
}

func TestFSDisabledConfigIsNil(t *testing.T) {
	if fs := NewFS(FSConfig{}, nil); fs != nil {
		t.Fatal("zero FSConfig must produce a nil injector")
	}
	var fs *FS
	if got := fs.Wrap(nil); got != nil {
		t.Fatal("nil injector Wrap(nil) must return nil (real filesystem)")
	}
	if fs.Injected() != 0 {
		t.Fatal("nil injector reports injections")
	}
	fs.SetDisabled(true) // must not panic
}

func TestFSWriteErrorIsENOSPC(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(FSConfig{WriteErrRate: 1}, nil)
	err := writeThrough(t, fs, dir, "f", "payload")
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ErrInjected wrapping ENOSPC", err)
	}
	if _, serr := os.Stat(filepath.Join(dir, "f")); !os.IsNotExist(serr) {
		t.Fatal("failed write published a file")
	}
	assertNoDebris(t, dir)
	if fs.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", fs.Injected())
	}
}

func TestFSShortWriteFails(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(FSConfig{ShortWriteRate: 1}, nil)
	err := writeThrough(t, fs, dir, "f", "0123456789")
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ErrInjected wrapping ENOSPC", err)
	}
	if _, serr := os.Stat(filepath.Join(dir, "f")); !os.IsNotExist(serr) {
		t.Fatal("short write published a file")
	}
	assertNoDebris(t, dir)
}

func TestFSSyncError(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(FSConfig{SyncErrRate: 1}, nil)
	err := writeThrough(t, fs, dir, "f", "payload")
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("err = %v, want ErrInjected wrapping EIO", err)
	}
	if _, serr := os.Stat(filepath.Join(dir, "f")); !os.IsNotExist(serr) {
		t.Fatal("failed sync published a file")
	}
	assertNoDebris(t, dir)
}

// TestFSTornRename pins the nastiest artifact: a rename that "tears",
// leaving a truncated destination — exactly what the checkpoint layer's
// checksum envelope exists to catch.
func TestFSTornRename(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(FSConfig{TornRenameRate: 1}, nil)
	err := writeThrough(t, fs, dir, "f", "full payload bytes")
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("err = %v, want ErrInjected wrapping EIO", err)
	}
	got, rerr := os.ReadFile(filepath.Join(dir, "f"))
	if rerr != nil {
		t.Fatalf("torn rename left no destination artifact: %v", rerr)
	}
	if string(got) == "full payload bytes" || len(got) == 0 {
		t.Fatalf("destination = %q, want a truncated prefix", got)
	}
	if !strings.HasPrefix("full payload bytes", string(got)) {
		t.Fatalf("torn destination %q is not a prefix of the payload", got)
	}
}

// TestFSSetDisabledRecovers models a disk that fills and is cleared: with
// injection paused the same FS serves writes cleanly, and resuming makes
// it fail again.
func TestFSSetDisabledRecovers(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(FSConfig{WriteErrRate: 1}, nil)
	if err := writeThrough(t, fs, dir, "f", "x"); err == nil {
		t.Fatal("enabled injector let a write through at rate 1")
	}
	fs.SetDisabled(true)
	if err := writeThrough(t, fs, dir, "f", "x"); err != nil {
		t.Fatalf("disabled injector still failed: %v", err)
	}
	fs.SetDisabled(false)
	if err := writeThrough(t, fs, dir, "f", "y"); err == nil {
		t.Fatal("re-enabled injector let a write through at rate 1")
	}
	got, _ := os.ReadFile(filepath.Join(dir, "f"))
	if string(got) != "x" {
		t.Fatalf("failed overwrite corrupted the file: %q", got)
	}
}

// TestFSDeterministicAcrossRuns: the same seed over the same operation
// sequence fires the same faults; a different seed differs somewhere.
func TestFSDeterministicAcrossRuns(t *testing.T) {
	pattern := func(seed int64) string {
		dir := t.TempDir()
		fs := NewFS(FSConfig{Rate: 0.3, Seed: seed}, nil)
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if writeThrough(t, fs, dir, "f", strings.Repeat("x", 32)) != nil {
				b.WriteByte('F')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	a, b := pattern(7), pattern(7)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if c := pattern(8); c == a {
		t.Fatalf("different seed produced an identical pattern: %s", c)
	}
	if !strings.Contains(a, "F") || !strings.Contains(a, ".") {
		t.Fatalf("rate 0.3 pattern degenerate: %s", a)
	}
}

func assertNoDebris(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp debris %s left behind", e.Name())
		}
	}
}
