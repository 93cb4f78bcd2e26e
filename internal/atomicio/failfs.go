package atomicio

import (
	"os"
	"sync"
	"sync/atomic"
	"syscall"
)

// Fault names the one kind of operation a FailFS fails, and how.
type Fault int

const (
	FailCreate     Fault = iota // CreateTemp refused: the process died after its last write
	FailWrite                   // File.Write lands nothing and returns ENOSPC
	FailShortWrite              // File.Write silently lands half its bytes
	FailSync                    // File.Sync returns EIO
	FailRename                  // torn publish: half the file lands, then Rename returns EIO
	FailSyncDir                 // SyncDir returns EIO after the rename landed
)

// FailFS is the deterministic failing FS of the persistence stack's tests.
// It passes every operation through to OS, lets the first After operations
// of kind Fail succeed and fails every later one; while Off is set nothing
// fails, which models a disk that has been cleared. Every file it
// publishes is kept with its bytes, in landing order. It is safe for
// concurrent use.
type FailFS struct {
	Fail  Fault
	After int
	Off   atomic.Bool

	mu        sync.Mutex
	seen      int
	published []Published
}

// Published is one file a FailFS renamed into place, as it landed.
type Published struct {
	Path string
	Data []byte
}

// fails counts one operation of kind k and reports whether it fails.
func (f *FailFS) fails(k Fault) bool {
	if k != f.Fail || f.Off.Load() {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen++
	return f.seen > f.After
}

// Published returns the files published so far, in landing order.
func (f *FailFS) Published() []Published {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Published(nil), f.published...)
}

func (f *FailFS) CreateTemp(dir, pattern string) (File, error) {
	if f.fails(FailCreate) {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: syscall.EIO}
	}
	file, err := OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &failFile{File: file, fs: f}, nil
}

func (f *FailFS) Rename(oldpath, newpath string) error {
	data, err := os.ReadFile(oldpath)
	if err != nil {
		return err
	}
	if f.fails(FailRename) {
		_ = os.WriteFile(newpath, data[:len(data)/2], 0o644)
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EIO}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := OS.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.published = append(f.published, Published{newpath, data})
	return nil
}

func (f *FailFS) Remove(name string) error { return OS.Remove(name) }

func (f *FailFS) SyncDir(dir string) error {
	if f.fails(FailSyncDir) {
		return &os.PathError{Op: "syncdir", Path: dir, Err: syscall.EIO}
	}
	return OS.SyncDir(dir)
}

// failFile fails the writes and syncs of one file FailFS created.
type failFile struct {
	File
	fs *FailFS
}

func (w *failFile) Write(p []byte) (int, error) {
	switch {
	case w.fs.fails(FailWrite):
		return 0, &os.PathError{Op: "write", Path: w.Name(), Err: syscall.ENOSPC}
	case w.fs.fails(FailShortWrite):
		return w.File.Write(p[:len(p)/2])
	}
	return w.File.Write(p)
}

func (w *failFile) Sync() error {
	if w.fs.fails(FailSync) {
		return &os.PathError{Op: "sync", Path: w.Name(), Err: syscall.EIO}
	}
	return w.File.Sync()
}
