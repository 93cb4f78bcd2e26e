// Package checkpoint is a content-addressed, crash-safe result store that
// makes long experiment sweeps resumable: each completed simulation unit
// is persisted under the hash of its fully-resolved run descriptor, so an
// interrupted sweep re-run against the same directory replays the cached
// units byte-identically and executes only the missing ones.
//
// Crash safety comes from three properties:
//
//   - entries are written via a same-directory temp file + rename, so a
//     kill mid-write never publishes a truncated entry;
//   - every entry embeds a checksum of its payload and the full canonical
//     key text; Get verifies both (plus the schema version) and discards —
//     deletes — anything that fails, treating it as a miss;
//   - keys hash the complete run configuration (workload, platform,
//     threads, fault and parallelism knobs), so a sweep re-run with any
//     knob changed misses cleanly instead of replaying stale results.
package checkpoint

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"charonsim/internal/atomicio"
)

// Version is the entry schema version; entries written by a different
// version are discarded on read.
const Version = 1

// suffix marks store entries; anything else in the directory is ignored.
const suffix = ".ckpt.json"

// Store is a directory-backed checkpoint store. All methods are safe for
// concurrent use: entries are immutable once published, and concurrent
// writers of the same key publish identical content (the store only ever
// holds deterministic results), so rename races are benign.
type Store struct {
	dir  string
	fsys atomicio.FS // nil = real filesystem; tests inject fault.FS

	hits, misses, discards, writeErrs atomic.Uint64

	errMu   sync.Mutex
	lastErr string // last Put failure with its path, for diagnostics
}

// Open creates (if needed) and opens a checkpoint directory. Created
// directories are 0o755 — owner-writable only; the store holds simulation
// results, and a world-writable directory would let any local user plant
// entries.
func Open(dir string) (*Store, error) { return OpenFS(dir, nil) }

// OpenFS is Open with an explicit filesystem for the write path (nil =
// the real filesystem). Fault-injection tests pass a fault.FS here to
// exercise the store's behaviour under ENOSPC, fsync errors, and torn
// renames without a failing disk.
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

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

// entry is the on-disk envelope.
type entry struct {
	Version  int             `json:"version"`
	Key      string          `json:"key"`
	Checksum string          `json:"checksum_sha256"`
	Payload  json.RawMessage `json:"payload"`
}

// KeyHash is the content address of a canonical key string — the hex
// digest the store names its entry files with. It is exported so other
// layers that key on the same canonical descriptors (the charond result
// cache derives its job ids from it) stay byte-compatible with the store
// without re-deriving the hashing scheme.
func KeyHash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])[:32]
}

// pathFor content-addresses a canonical key string.
func (s *Store) pathFor(key string) string {
	return filepath.Join(s.dir, KeyHash(key)+suffix)
}

func payloadChecksum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
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
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil ||
		e.Version != Version ||
		e.Key != key ||
		e.Checksum != payloadChecksum(e.Payload) {
		os.Remove(path)
		s.discards.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return e.Payload, true
}

// Put persists payload under key atomically. Store I/O must never fail a
// sweep, so errors are counted (see Stats) and reported to the caller but
// are safe to ignore: a failed Put just means that unit re-executes on
// resume. The first/most recent failure is kept with its path
// (LastWriteError) so a full disk is diagnosable from counters alone.
func (s *Store) Put(key string, payload json.RawMessage) error {
	if s == nil {
		return nil
	}
	data, err := json.Marshal(entry{
		Version: Version, Key: key,
		Checksum: payloadChecksum(payload), Payload: payload,
	})
	if err != nil {
		return s.recordPutErr(fmt.Errorf("checkpoint: encode %q: %w", key, err))
	}
	path := s.pathFor(key)
	if err := atomicio.WriteFileBytesFS(s.fsys, path, data); err != nil {
		return s.recordPutErr(fmt.Errorf("checkpoint: %w", err))
	}
	return nil
}

// recordPutErr counts a write failure and remembers it for diagnostics.
func (s *Store) recordPutErr(err error) error {
	s.writeErrs.Add(1)
	s.errMu.Lock()
	s.lastErr = err.Error()
	s.errMu.Unlock()
	return err
}

// LastWriteError returns the most recent Put failure (path included), or
// "" when every write so far succeeded. Operators read it through
// charond's /v1/metrics to tell a full disk from a flaky one.
func (s *Store) LastWriteError() string {
	if s == nil {
		return ""
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.lastErr
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

// Range calls fn for every valid entry on disk, in sorted filename
// (content-address) order for determinism. Invalid entries — corrupt,
// truncated, version-mismatched — are deleted and skipped, like Get
// does. fn returning false stops the scan. Concurrent Puts may or may
// not be observed; published entries are immutable, so whatever Range
// reads is complete.
func (s *Store) Range(fn func(key string, payload json.RawMessage) bool) error {
	if s == nil {
		return nil
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, de := range ents {
		if !de.IsDir() && isEntryName(de.Name()) {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			continue // raced with a Delete
		}
		var e entry
		if json.Unmarshal(raw, &e) != nil ||
			e.Version != Version ||
			e.Checksum != payloadChecksum(e.Payload) ||
			s.pathFor(e.Key) != path {
			os.Remove(path)
			s.discards.Add(1)
			continue
		}
		if !fn(e.Key, e.Payload) {
			return nil
		}
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

// isEntryName reports whether a directory entry name is a published store
// entry. In-flight atomicio temp files are dot-prefixed
// (".<name>.tmp-<rand>"), so skipping dot names keeps Len stable under
// concurrent writers and keeps Verify from touching a write in progress.
func isEntryName(name string) bool {
	return !strings.HasPrefix(name, ".") && strings.HasSuffix(name, suffix)
}

// Len counts the published entries currently on disk (validity not
// checked). In-flight temp files from concurrent writers are excluded.
func (s *Store) Len() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && isEntryName(e.Name()) {
			n++
		}
	}
	return n, nil
}

// Verify scans every entry on disk, deletes the invalid ones, and returns
// (valid, discarded). The resume path does not need it — Get self-heals —
// but crash tests and operators use it to assert a directory is clean.
func (s *Store) Verify() (valid, discarded int, err error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: %w", err)
	}
	for _, de := range ents {
		if de.IsDir() || !isEntryName(de.Name()) {
			continue
		}
		path := filepath.Join(s.dir, de.Name())
		raw, rerr := os.ReadFile(path)
		var e entry
		if rerr != nil || json.Unmarshal(raw, &e) != nil ||
			e.Version != Version ||
			e.Checksum != payloadChecksum(e.Payload) ||
			s.pathFor(e.Key) != path {
			os.Remove(path)
			discarded++
			continue
		}
		valid++
	}
	return valid, discarded, nil
}
