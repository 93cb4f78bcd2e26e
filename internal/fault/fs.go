package fault

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"charonsim/internal/atomicio"
)

// ErrInjected marks every error produced by the filesystem injector.
// Layers above classify on it: an injected fault is transient by
// definition (the disk is fine; the injector said no), so retry and
// degraded-mode machinery treat it like any other recoverable I/O error
// while tests can still tell injected failures from real ones.
var ErrInjected = errors.New("fault: injected I/O error")

// FSConfig selects which filesystem fault classes the injector produces
// and how often. The zero value disables injection. Rate is the master
// knob; the per-class rates derive from it unless set explicitly,
// mirroring Config.
type FSConfig struct {
	// Rate is the master per-operation fault probability in [0, 1] and the
	// default for every class below. 1 fails every eligible operation —
	// useful for pinning error paths deterministically.
	Rate float64
	// Seed selects the deterministic fault pattern, like Config.Seed.
	Seed int64

	// WriteErrRate is the per-write probability of a hard ENOSPC: the
	// write lands nothing and fails (default Rate).
	WriteErrRate float64
	// ShortWriteRate is the per-write probability of a torn write: half
	// the bytes land, then ENOSPC (default Rate).
	ShortWriteRate float64
	// SyncErrRate is the per-fsync probability of an EIO, applied to both
	// file syncs and directory syncs (default Rate).
	SyncErrRate float64
	// TornRenameRate is the per-rename probability of a torn publish: the
	// destination receives a truncated copy of the source — the artifact
	// of a crash on a filesystem without atomic rename — and the rename
	// reports EIO (default Rate).
	TornRenameRate float64
}

// Enabled reports whether any fault class can fire.
func (c FSConfig) Enabled() bool {
	return c.Rate > 0 || c.WriteErrRate > 0 || c.ShortWriteRate > 0 ||
		c.SyncErrRate > 0 || c.TornRenameRate > 0
}

func (c FSConfig) withDefaults() FSConfig {
	if c.WriteErrRate == 0 {
		c.WriteErrRate = c.Rate
	}
	if c.ShortWriteRate == 0 {
		c.ShortWriteRate = c.Rate
	}
	if c.SyncErrRate == 0 {
		c.SyncErrRate = c.Rate
	}
	if c.TornRenameRate == 0 {
		c.TornRenameRate = c.Rate
	}
	return c
}

// FS is a deterministic, seeded fault-injecting atomicio.FS: it wraps the
// real filesystem (or any inner FS) and makes the write paths used by
// atomicio, checkpoint, and the charond job journal fail the way disks
// fail — ENOSPC, short writes, fsync EIO, torn renames. Unlike the
// simulation injector it is safe for concurrent use: server worker pools
// write checkpoints in parallel.
type FS struct {
	cfg   FSConfig
	inner atomicio.FS

	mu  sync.Mutex
	src Source

	disabled atomic.Bool
	injected atomic.Uint64
}

// NewFS builds a filesystem injector over inner (nil inner = the real
// filesystem), or nil when cfg enables nothing — a nil *FS is a valid
// atomicio.FS value only in the sense that callers should pass the inner
// FS instead; use Wrap for that pattern.
func NewFS(cfg FSConfig, inner atomicio.FS) *FS {
	if !cfg.Enabled() {
		return nil
	}
	return &FS{
		cfg:   cfg.withDefaults(),
		inner: inner,
		src:   *NewSource("fault/fs", cfg.Seed),
	}
}

// Wrap returns f as an atomicio.FS, or inner when f is nil — the
// "faults off" fast path keeps the real filesystem with zero overhead.
func (f *FS) Wrap(inner atomicio.FS) atomicio.FS {
	if f == nil {
		return inner
	}
	f.inner = inner
	return f
}

// SetDisabled pauses (true) or resumes (false) injection at runtime.
// Recovery tests flip it to model a disk that fills and is then cleared.
func (f *FS) SetDisabled(v bool) {
	if f != nil {
		f.disabled.Store(v)
	}
}

// Injected returns how many faults have fired.
func (f *FS) Injected() uint64 {
	if f == nil {
		return 0
	}
	return f.injected.Load()
}

// hit draws one trial from the shared stream.
func (f *FS) hit(p float64) bool {
	if f.disabled.Load() {
		return false
	}
	f.mu.Lock()
	ok := f.src.Hit(p)
	f.mu.Unlock()
	if ok {
		f.injected.Add(1)
	}
	return ok
}

func (f *FS) real() atomicio.FS {
	if f.inner != nil {
		return f.inner
	}
	return atomicio.OS
}

// injectedErr builds the error for one fired fault: it wraps both
// ErrInjected (for classification) and the modelled errno (so callers see
// the same error shapes a real disk produces).
func injectedErr(op, path string, errno error) error {
	return fmt.Errorf("%w: %s %s: %w", ErrInjected, op, path, errno)
}

// CreateTemp passes through; faults fire on the write path, not on file
// creation, so every failure leaves a temp file for the cleanup paths to
// handle — the harder case.
func (f *FS) CreateTemp(dir, pattern string) (atomicio.File, error) {
	file, err := f.real().CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, File: file}, nil
}

// Rename either passes through or tears: the destination receives a
// truncated prefix of the source — what a crash mid-publish leaves on a
// filesystem without atomic rename — and the operation reports EIO. The
// source temp file is left behind, as a crash would leave it.
func (f *FS) Rename(oldpath, newpath string) error {
	if !f.hit(f.cfg.TornRenameRate) {
		return f.real().Rename(oldpath, newpath)
	}
	data, err := os.ReadFile(oldpath)
	if err == nil {
		_ = os.WriteFile(newpath, data[:len(data)/2], 0o644)
	}
	return injectedErr("rename", newpath, syscall.EIO)
}

// Remove passes through: cleanup must keep working under injection, or
// every fault would leak temp files.
func (f *FS) Remove(name string) error { return f.real().Remove(name) }

// SyncDir either passes through or reports EIO.
func (f *FS) SyncDir(dir string) error {
	if f.hit(f.cfg.SyncErrRate) {
		return injectedErr("syncdir", dir, syscall.EIO)
	}
	return f.real().SyncDir(dir)
}

// faultFile injects write and sync faults on one open file.
type faultFile struct {
	fs *FS
	atomicio.File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.fs.hit(ff.fs.cfg.WriteErrRate) {
		return 0, injectedErr("write", ff.Name(), syscall.ENOSPC)
	}
	if ff.fs.hit(ff.fs.cfg.ShortWriteRate) {
		n, err := ff.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, injectedErr("write", ff.Name(), syscall.ENOSPC)
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	if ff.fs.hit(ff.fs.cfg.SyncErrRate) {
		return injectedErr("fsync", ff.Name(), syscall.EIO)
	}
	return ff.File.Sync()
}
