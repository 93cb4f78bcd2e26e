// Package atomicio provides crash-safe file output: a writer that lands
// its bytes in a same-directory temp file and renames it into place only
// after a successful write and sync. A process killed mid-write — the
// failure mode of an interrupted sweep flushing metrics, traces, or
// checkpoint entries — leaves either the previous complete file or no
// file, never a truncated one.
//
// All writes go through an FS, a small seam over the handful of syscalls
// the protocol needs. Production code uses the real filesystem (the nil
// default); tests use FailFS, which fails one chosen kind of operation the
// way a disk does (ENOSPC, short writes, fsync errors, torn renames), so
// the persistence stack's failure paths are testable without a failing disk.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the write protocol touches.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS abstracts the filesystem operations WriteFile performs, in protocol
// order: CreateTemp, File.Write*, File.Sync, File.Close, Rename, SyncDir
// (with Remove cleaning up on any failure). A nil FS is the real
// filesystem.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, making a preceding rename in it durable.
	SyncDir(dir string) error
}

// OS is the real filesystem, the FS a nil FS stands for. FailFS passes
// its surviving operations through to it.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is advisory on some filesystems; a sync error still
	// means durability is not guaranteed, so it propagates.
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteFile atomically replaces path with whatever write produces. The
// temp file lives in path's directory so the final rename stays on one
// filesystem (rename is only atomic within a filesystem). If write or any
// I/O step fails, the target is left untouched and the temp file removed.
func WriteFile(path string, write func(w io.Writer) error) error {
	return WriteFileFS(nil, path, write)
}

// WriteFileBytes is WriteFile for a ready byte slice.
func WriteFileBytes(path string, data []byte) error {
	return WriteFileBytesFS(nil, path, data)
}

// WriteFileFS is WriteFile over an explicit FS (nil = real filesystem).
// After the rename publishes the file, the parent directory is fsynced so
// the publish itself survives a crash — a caller that saw WriteFileFS
// return nil may rely on the entry being present after power loss.
func WriteFileFS(fsys FS, path string, write func(w io.Writer) error) (err error) {
	if fsys == nil {
		fsys = OS
	}
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			fsys.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("atomicio: writing %s: %w", path, err)
	}
	// Sync before rename: otherwise a crash shortly after could publish a
	// file whose data blocks never reached the disk.
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", path, err)
	}
	if err = fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomicio: publish %s: %w", path, err)
	}
	if err = fsys.SyncDir(dir); err != nil {
		// The rename happened but its durability is not guaranteed; the
		// file is left in place (it is complete and checksummed by the
		// layers above) and the caller learns the write may not survive a
		// crash.
		return fmt.Errorf("atomicio: sync dir %s: %w", dir, err)
	}
	return nil
}

// WriteFileBytesFS is WriteFileFS for a ready byte slice.
func WriteFileBytesFS(fsys FS, path string, data []byte) error {
	return WriteFileFS(fsys, path, func(w io.Writer) error {
		n, err := w.Write(data)
		if err == nil && n < len(data) {
			err = io.ErrShortWrite
		}
		return err
	})
}
