package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileBytes(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileBytes(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("read %q, %v; want v2", got, err)
	}
	if names := listDir(t, dir); len(names) != 1 {
		t.Fatalf("leftover temp files: %v", names)
	}
}

// TestWriteFileMidWriteFailure simulates a write that dies halfway through
// (the moral equivalent of a SIGKILL mid-flush): the previous complete
// file must survive untouched and no temp debris may remain.
func TestWriteFileMidWriteFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	if err := WriteFileBytes(path, []byte(`{"complete":true}`)); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk on fire")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"compl`); err != nil { // partial write...
			return err
		}
		return boom // ...then the failure
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}

	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != `{"complete":true}` {
		t.Fatalf("target corrupted: %q, %v", got, rerr)
	}
	for _, name := range listDir(t, dir) {
		if strings.Contains(name, ".tmp-") {
			t.Fatalf("temp file %s left behind", name)
		}
	}
}

func TestWriteFileNewFileFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	err := WriteFile(path, func(io.Writer) error { return errors.New("nope") })
	if err == nil {
		t.Fatal("want error")
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("failed write published a file: %v", serr)
	}
	if names := listDir(t, dir); len(names) != 0 {
		t.Fatalf("debris: %v", names)
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	if err := WriteFileBytes(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x")); err == nil {
		t.Fatal("want error for missing directory")
	}
}

// TestWriteFileBytesFSDetectsShortWrite pins the ENOSPC-shaped failure
// mode: a writer that silently lands fewer bytes than asked must fail the
// write (io.ErrShortWrite), leave no debris, and never publish.
func TestWriteFileBytesFSDetectsShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.json")
	err := WriteFileBytesFS(&FailFS{Fail: FailShortWrite}, path, []byte("more than one byte"))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v, want io.ErrShortWrite", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("short write published a file: %v", serr)
	}
	if names := listDir(t, dir); len(names) != 0 {
		t.Fatalf("debris: %v", names)
	}
}

// TestWriteFileFSSyncDirFailureKeepsCompleteFile: when the rename landed
// but the directory fsync failed, the caller must see the error (the
// publish may not survive a crash) while the file on disk — complete and
// checksummed by the layers above — stays in place.
func TestWriteFileFSSyncDirFailureKeepsCompleteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.json")
	err := WriteFileBytesFS(&FailFS{Fail: FailSyncDir}, path, []byte("payload"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("err = %v, want the injected sync-dir failure", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != "payload" {
		t.Fatalf("published file = %q, %v; want complete payload", got, rerr)
	}
}

// TestWriteFileNilFSIsRealFilesystem: the nil FS default must behave
// exactly like WriteFile.
func TestWriteFileNilFSIsRealFilesystem(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFileBytesFS(nil, path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "x" {
		t.Fatalf("read %q, %v", got, err)
	}
}

// TestFailFS pins every failure FailFS produces: with After 1 the first
// write of each kind lands and the second fails with its errno, leaving
// no temp debris and the target as that failure leaves it. Off then lets
// the next write through, and Published lists what landed, in order.
func TestFailFS(t *testing.T) {
	for _, row := range []struct {
		name string
		fail Fault
		err  error  // the failed write's error
		left string // the target after the failed write; "" = a torn prefix
	}{
		{"create", FailCreate, syscall.EIO, "v1"},
		{"write", FailWrite, syscall.ENOSPC, "v1"},
		{"short_write", FailShortWrite, io.ErrShortWrite, "v1"},
		{"sync", FailSync, syscall.EIO, "v1"},
		{"rename", FailRename, syscall.EIO, ""},
		{"syncdir", FailSyncDir, syscall.EIO, "v2 is the longer payload"},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f")
			fsys := &FailFS{Fail: row.fail, After: 1}
			if err := WriteFileBytesFS(fsys, path, []byte("v1")); err != nil {
				t.Fatalf("write 1 of After 1 failed: %v", err)
			}
			const v2 = "v2 is the longer payload"
			if err := WriteFileBytesFS(fsys, path, []byte(v2)); !errors.Is(err, row.err) {
				t.Fatalf("write 2 = %v, want %v", err, row.err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if row.left == "" {
				if len(got) == 0 || len(got) == len(v2) || !strings.HasPrefix(v2, string(got)) {
					t.Fatalf("torn destination = %q, want a truncated prefix of %q", got, v2)
				}
			} else if string(got) != row.left {
				t.Fatalf("target = %q, want %q", got, row.left)
			}
			for _, name := range listDir(t, dir) {
				if strings.Contains(name, ".tmp-") {
					t.Fatalf("temp file %s left behind", name)
				}
			}

			fsys.Off.Store(true)
			if err := WriteFileBytesFS(fsys, path, []byte("v3")); err != nil {
				t.Fatalf("write with the FS off: %v", err)
			}
			var landed []string
			for _, p := range fsys.Published() {
				if p.Path != path {
					t.Fatalf("published %s, want %s", p.Path, path)
				}
				landed = append(landed, string(p.Data))
			}
			want := "v1,v3"
			if row.fail == FailSyncDir {
				want = "v1," + v2 + ",v3"
			}
			if strings.Join(landed, ",") != want {
				t.Fatalf("published %q, want %s", landed, want)
			}
		})
	}
}
