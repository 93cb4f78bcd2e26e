// Package checkpoint is a content-addressed, crash-safe result store that
// makes long experiment sweeps resumable: each completed simulation unit
// is persisted under the hash of its fully-resolved run descriptor, so an
// interrupted sweep re-run against the same directory replays the cached
// units byte-identically and executes only the missing ones. A payload
// is opaque bytes, stored verbatim after its entry's one-line JSON head.
//
// Crash safety comes from three properties:
//
//   - entries are written via a same-directory temp file + rename, so a
//     kill mid-write never publishes a truncated entry;
//   - every entry's head carries a checksum of its payload and the full
//     canonical key text; every read verifies both (plus the schema
//     version) and discards — deletes — anything that fails, treating it
//     as a miss;
//   - keys hash the complete run configuration (workload, platform,
//     threads, fault and parallelism knobs), so a sweep re-run with any
//     knob changed misses cleanly instead of replaying stale results.
package checkpoint

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"charonsim/internal/atomicio"
)

// Version is the entry schema version; entries written by a different
// version — such as version 1, one JSON object with the payload nested
// inside and no head line — are discarded on read.
const Version = 2

// suffix marks store entries; anything else in the directory is ignored.
// An entry is no longer one JSON document, but version-1 entries carry
// this suffix: keeping it finds and collects them rather than orphaning
// them, and every glob written against it still holds.
const suffix = ".ckpt.json"

// Store is a directory-backed checkpoint store. All methods are safe for
// concurrent use: entries are immutable once published, and concurrent
// writers of the same key publish identical content (the store only ever
// holds deterministic results), so rename races are benign.
type Store struct {
	dir  string
	fsys atomicio.FS // nil = real filesystem; tests inject atomicio.FailFS

	hits, misses, discards, writeErrs atomic.Uint64
	lastErr                           atomic.Value // string: the last Put failure with its path, for diagnostics
}

// Open creates (if needed) and opens a checkpoint directory. Created
// directories are 0o755 — owner-writable only; the store holds simulation
// results, and a world-writable directory would let any local user plant
// entries.
func Open(dir string) (*Store, error) { return OpenFS(dir, nil) }

// OpenFS is Open with an explicit filesystem for the write path (nil =
// the real filesystem). Tests pass an atomicio.FailFS here to exercise
// the store's behaviour under ENOSPC, fsync errors, and torn renames
// without a failing disk.
func OpenFS(dir string, fsys atomicio.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{dir: dir, fsys: fsys}, nil
}

// storeKey is the context key WithStore files a store under.
type storeKey struct{}

// WithStore returns a copy of ctx that carries st. A long-lived owner of
// a store (charond's per-unit store) hands it to every run this way, so
// all of them share one handle and its counters.
func WithStore(ctx context.Context, st *Store) context.Context {
	return context.WithValue(ctx, storeKey{}, st)
}

// FromContext returns the store ctx carries, or nil.
func FromContext(ctx context.Context) *Store {
	st, _ := ctx.Value(storeKey{}).(*Store)
	return st
}

// head is the first line of an entry file; the payload follows it
// verbatim, after one newline. json.Marshal never emits a raw newline,
// so the first newline in a file ends the head exactly.
type head struct {
	Version  int    `json:"version"`
	Key      string `json:"key"`
	Checksum string `json:"checksum_sha256"`
}

// KeyHash is the content address of a canonical key string — the hex
// digest the store names its entry files with. It is exported so other
// layers that key on the same canonical descriptors (the charond result
// cache derives its job ids from it) stay byte-compatible with the store
// without re-deriving the hashing scheme.
func KeyHash(key string) string { return sha256Hex([]byte(key))[:32] }

// pathFor content-addresses a canonical key string.
func (s *Store) pathFor(key string) string {
	return filepath.Join(s.dir, KeyHash(key)+suffix)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// encode lays out the entry file that stores payload under key.
func encode(key string, payload []byte) []byte {
	h, _ := json.Marshal(head{Version, key, sha256Hex(payload)}) // an int and two strings always marshal
	return append(append(h, '\n'), payload...)
}

// Decode validates the bytes of the entry file at path and returns the
// key and payload they store: the head line must decode, carry this
// Version and a key whose content address is the file's name, and the
// payload after it must match the head's checksum. It is the one reader
// of entry bytes — Get, Range and Verify call it, and so can a test
// holding the bytes a filesystem published.
func Decode(path string, raw []byte) (key string, payload []byte, err error) {
	line, payload, ok := bytes.Cut(raw, []byte{'\n'})
	var h head
	if !ok || json.Unmarshal(line, &h) != nil || h.Version != Version ||
		KeyHash(h.Key)+suffix != filepath.Base(path) || h.Checksum != sha256Hex(payload) {
		return "", nil, fmt.Errorf("checkpoint: %s is not a valid version-%d entry", filepath.Base(path), Version)
	}
	return h.Key, payload, nil
}

// Get returns the payload stored for key. A missing, corrupt, truncated,
// key-mismatched, or version-mismatched entry is a miss; invalid entries
// are deleted so they are rebuilt rather than re-probed forever.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	path := s.pathFor(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	stored, payload, err := Decode(path, raw)
	if err != nil || stored != key { // the exact key, not only its address
		os.Remove(path)
		s.discards.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Put persists payload under key atomically. Store I/O must never fail a
// sweep, so errors are counted (see Stats) and reported to the caller but
// are safe to ignore: a failed Put just means that unit re-executes on
// resume. The first/most recent failure is kept with its path
// (LastWriteError) so a full disk is diagnosable from counters alone.
func (s *Store) Put(key string, payload []byte) error {
	if s == nil {
		return nil
	}
	err := atomicio.WriteFileBytesFS(s.fsys, s.pathFor(key), encode(key, payload))
	if err != nil {
		err = fmt.Errorf("checkpoint: %w", err)
		s.writeErrs.Add(1)
		s.lastErr.Store(err.Error())
	}
	return err
}

// LastWriteError returns the most recent Put failure (path included), or
// "" when every write so far succeeded. Operators read it through
// charond's /v1/metrics to tell a full disk from a flaky one.
func (s *Store) LastWriteError() string {
	if s == nil {
		return ""
	}
	last, _ := s.lastErr.Load().(string)
	return last
}

// Delete removes the entry stored for key, if any. The charond job
// journal uses it to garbage-collect terminal records on boot replay.
func (s *Store) Delete(key string) error {
	if s == nil {
		return nil
	}
	if err := os.Remove(s.pathFor(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: delete %q: %w", key, err)
	}
	return nil
}

// Stats reports the store's counters: served hits, misses, discarded
// invalid entries, and write errors.
func (s *Store) Stats() (hits, misses, discards, writeErrs uint64) {
	if s == nil {
		return 0, 0, 0, 0
	}
	return s.hits.Load(), s.misses.Load(), s.discards.Load(), s.writeErrs.Load()
}

// entryNames lists the published entry files in sorted filename
// (content-address) order: the one directory scan behind Len, Range and
// Verify. In-flight atomicio temp files are dot-prefixed
// (".<name>.tmp-<rand>"), so skipping dot names keeps Len stable under
// concurrent writers and keeps Verify from touching a write in progress.
func (s *Store) entryNames() ([]string, error) {
	ents, err := os.ReadDir(s.dir) // sorted by filename
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, de := range ents {
		if name := de.Name(); !de.IsDir() && !strings.HasPrefix(name, ".") && strings.HasSuffix(name, suffix) {
			names = append(names, name)
		}
	}
	return names, nil
}

// scan calls fn for every valid entry on disk, in entryNames order,
// until fn returns false. Invalid entries are discarded like Get does and
// counted in the result. An entry that vanishes before it is read raced
// with a Delete and is skipped.
func (s *Store) scan(fn func(key string, payload []byte) bool) (discarded int, err error) {
	names, err := s.entryNames()
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		key, payload, err := Decode(path, raw)
		if err != nil {
			os.Remove(path)
			s.discards.Add(1)
			discarded++
			continue
		}
		if !fn(key, payload) {
			break
		}
	}
	return discarded, nil
}

// Range calls fn for every valid entry on disk, in sorted filename
// (content-address) order for determinism. Invalid entries — corrupt,
// truncated, version-mismatched — are deleted and skipped, like Get
// does. fn returning false stops the scan. Concurrent Puts may or may
// not be observed; published entries are immutable, so whatever Range
// reads is complete.
func (s *Store) Range(fn func(key string, payload []byte) bool) error {
	if s == nil {
		return nil
	}
	_, err := s.scan(fn)
	return err
}

// Len counts the published entries currently on disk (validity not
// checked). In-flight temp files from concurrent writers are excluded.
func (s *Store) Len() (int, error) {
	names, err := s.entryNames()
	return len(names), err
}

// Verify scans every entry on disk, deletes the invalid ones, and returns
// (valid, discarded). The resume path does not need it — Get self-heals —
// but crash tests and operators use it to assert a directory is clean.
func (s *Store) Verify() (valid, discarded int, err error) {
	discarded, err = s.scan(func(string, []byte) bool { valid++; return true })
	return valid, discarded, err
}
