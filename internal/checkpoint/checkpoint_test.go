package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"

	"charonsim/internal/atomicio"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t)
	payload := json.RawMessage(`{"duration":12345,"bytes":99}`)
	if err := s.Put("run|wl=BS|platform=Charon", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("run|wl=BS|platform=Charon")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := s.Get("run|wl=BS|platform=DDR4"); ok {
		t.Fatal("different key must miss")
	}
	hits, misses, discards, werrs := s.Stats()
	if hits != 1 || misses != 1 || discards != 0 || werrs != 0 {
		t.Fatalf("stats = %d/%d/%d/%d", hits, misses, discards, werrs)
	}
}

func TestReopenSeesEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("k", json.RawMessage(`[1,2,3]`)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("k"); !ok || string(got) != "[1,2,3]" {
		t.Fatalf("reopen Get = %q, %v", got, ok)
	}
}

// corrupt finds the single entry file in the store and rewrites it.
func corrupt(t *testing.T, s *Store, mutate func([]byte) []byte) string {
	t.Helper()
	ents, err := os.ReadDir(s.Dir())
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one entry, got %d (%v)", len(ents), err)
	}
	path := filepath.Join(s.Dir(), ents[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(raw), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTruncatedEntryIsDiscarded(t *testing.T) {
	s := open(t)
	if err := s.Put("k", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	path := corrupt(t, s, func(raw []byte) []byte { return raw[:len(raw)/2] })
	if _, ok := s.Get("k"); ok {
		t.Fatal("truncated entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("invalid entry not deleted")
	}
	if _, _, discards, _ := s.Stats(); discards != 1 {
		t.Fatalf("discards = %d, want 1", discards)
	}
}

func TestChecksumMismatchIsDiscarded(t *testing.T) {
	s := open(t)
	if err := s.Put("k", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, func(raw []byte) []byte {
		return []byte(strings.Replace(string(raw), `{"v":1}`, `{"v":2}`, 1))
	})
	if _, ok := s.Get("k"); ok {
		t.Fatal("payload-tampered entry served despite checksum")
	}
}

func TestVersionMismatchIsDiscarded(t *testing.T) {
	s := open(t)
	if err := s.Put("k", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, func(raw []byte) []byte {
		return []byte(strings.Replace(string(raw), `"version":1`, `"version":999`, 1))
	})
	if _, ok := s.Get("k"); ok {
		t.Fatal("version-mismatched entry served")
	}
}

func TestKeyCollisionFileIsDiscarded(t *testing.T) {
	// An entry whose embedded key does not hash to its own filename (a
	// copied/renamed file) must not be served for the probed key.
	s := open(t)
	if err := s.Put("orig", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(s.Dir())
	raw, _ := os.ReadFile(filepath.Join(s.Dir(), ents[0].Name()))
	// Drop the same envelope at a different key's address.
	if err := os.WriteFile(s.pathFor("other"), raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("other"); ok {
		t.Fatal("entry served under a key it was not written for")
	}
}

func TestVerifyCleansDirectory(t *testing.T) {
	s := open(t)
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, json.RawMessage(`{"k":"`+k+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	// One truncated entry + one foreign file the store must ignore.
	ents, _ := os.ReadDir(s.Dir())
	path := filepath.Join(s.Dir(), ents[0].Name())
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:10], 0o666)
	os.WriteFile(filepath.Join(s.Dir(), "README"), []byte("not an entry"), 0o666)

	valid, discarded, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if valid != 2 || discarded != 1 {
		t.Fatalf("Verify = %d valid, %d discarded; want 2, 1", valid, discarded)
	}
	if n, err := s.Len(); err != nil || n != 2 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put("k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("want error")
	}
}

func TestOpenCreatesNonWorldWritableDir(t *testing.T) {
	// A permissive umask must not yield a world-writable store: any local
	// user could plant entries. Open passes 0o755, so even umask 0 keeps
	// group/other write bits off.
	old := syscall.Umask(0)
	defer syscall.Umask(old)
	dir := filepath.Join(t.TempDir(), "nested", "store")
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm&0o022 != 0 {
		t.Fatalf("store dir is group/world writable: %04o", perm)
	}
}

func TestLenSkipsInflightTempFiles(t *testing.T) {
	s := open(t)
	if err := s.Put("a", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	// Shapes an in-flight atomicio temp file can take (dot-prefixed, with
	// and without the entry suffix buried in the name). None may count.
	for _, name := range []string{
		".0a1b.ckpt.json.tmp-123456",
		".0a1b.ckpt.json",
		".hidden",
	} {
		if err := os.WriteFile(filepath.Join(s.Dir(), name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1 (temp files must not count)", n, err)
	}
	// Verify must not delete an in-flight temp either.
	valid, discarded, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if valid != 1 || discarded != 0 {
		t.Fatalf("Verify = %d valid, %d discarded; want 1, 0", valid, discarded)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), ".0a1b.ckpt.json.tmp-123456")); err != nil {
		t.Fatalf("in-flight temp file was removed: %v", err)
	}
}

func TestKeyHashMatchesEntryFilename(t *testing.T) {
	s := open(t)
	if err := s.Put("some|canonical|key", json.RawMessage(`true`)); err != nil {
		t.Fatal(err)
	}
	want := KeyHash("some|canonical|key") + ".ckpt.json"
	if _, err := os.Stat(filepath.Join(s.Dir(), want)); err != nil {
		t.Fatalf("KeyHash-derived filename %q not found: %v", want, err)
	}
}

// --- PR 8: fault-injection hardening, Delete/Range, error diagnostics ---

func openFS(t *testing.T, fsys atomicio.FS) *Store {
	t.Helper()
	s, err := OpenFS(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutUnderENOSPCReturnsAndRecordsError(t *testing.T) {
	fsys := &atomicio.FailFS{Fail: atomicio.FailWrite}
	s := openFS(t, fsys)
	err := s.Put("k", json.RawMessage(`1`))
	var pathErr *os.PathError
	if !errors.As(err, &pathErr) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put = %v, want an I/O error wrapping ENOSPC", err)
	}
	if _, _, _, werrs := s.Stats(); werrs != 1 {
		t.Fatalf("writeErrs = %d, want 1", werrs)
	}
	last := s.LastWriteError()
	if last == "" || !strings.Contains(last, "no space left") && !strings.Contains(last, "ENOSPC") && !strings.Contains(last, s.pathFor("k")) {
		t.Fatalf("LastWriteError = %q, want the path or errno surfaced", last)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("failed Put published an entry")
	}
	// Recovery: the disk cleared, the same store serves writes again and
	// the recorded error stays for diagnosis.
	fsys.Off.Store(true)
	if err := s.Put("k", json.RawMessage(`1`)); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if _, ok := s.Get("k"); !ok {
		t.Fatal("entry missing after recovered Put")
	}
	if s.LastWriteError() == "" {
		t.Fatal("recovery erased the diagnostic record")
	}
}

// TestPutTornRenameSelfHeals: a rename that tears leaves a truncated
// destination; Put reports the failure, and the next Get discards the
// torn artifact as a miss instead of serving garbage.
func TestPutTornRenameSelfHeals(t *testing.T) {
	fsys := &atomicio.FailFS{Fail: atomicio.FailRename}
	s := openFS(t, fsys)
	if err := s.Put("k", json.RawMessage(`{"big":"payload payload payload"}`)); err == nil {
		t.Fatal("torn rename must fail the Put")
	}
	// The torn destination exists on disk, and the failed publish left no
	// temp file behind...
	if _, err := os.Stat(s.pathFor("k")); err != nil {
		t.Fatalf("expected a torn artifact at the entry path: %v", err)
	}
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("failed rename left temp file %s", e.Name())
		}
	}
	// ...but Get rejects and deletes it.
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get served a torn entry")
	}
	if _, err := os.Stat(s.pathFor("k")); !os.IsNotExist(err) {
		t.Fatal("Get left the torn artifact in place")
	}
	_, _, discards, _ := s.Stats()
	if discards != 1 {
		t.Fatalf("discards = %d, want 1", discards)
	}
	// With the disk healthy again the entry round-trips.
	fsys.Off.Store(true)
	if err := s.Put("k", json.RawMessage(`2`)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "2" {
		t.Fatalf("Get after heal = %q, %v", got, ok)
	}
}

func TestPutFsyncErrorDoesNotPublish(t *testing.T) {
	fsys := &atomicio.FailFS{Fail: atomicio.FailSync}
	s := openFS(t, fsys)
	if err := s.Put("k", json.RawMessage(`1`)); err == nil {
		t.Fatal("fsync failure must fail the Put")
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Fatalf("Len = %d, %v after failed sync, want 0", n, err)
	}
}

func TestDeleteRemovesEntry(t *testing.T) {
	s := open(t)
	if err := s.Put("k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("entry survived Delete")
	}
	if err := s.Delete("k"); err != nil {
		t.Fatalf("Delete of a missing entry must be a no-op, got %v", err)
	}
	if err := (*Store)(nil).Delete("k"); err != nil {
		t.Fatalf("nil store Delete: %v", err)
	}
}

func TestRangeVisitsValidEntriesSorted(t *testing.T) {
	s := open(t)
	want := map[string]string{"a": `1`, "b": `2`, "c": `3`}
	for k, v := range want {
		if err := s.Put(k, json.RawMessage(v)); err != nil {
			t.Fatal(err)
		}
	}
	// Plant one corrupt entry; Range must delete it and visit the rest.
	corrupt := filepath.Join(s.Dir(), KeyHash("zz")+suffix)
	if err := os.WriteFile(corrupt, []byte(`{"version":1,"key":"zz"`), 0o644); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	var order []string
	if err := s.Range(func(key string, payload json.RawMessage) bool {
		got[key] = string(payload)
		order = append(order, KeyHash(key))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%s] = %q, want %q", k, got[k], v)
		}
	}
	if !sort.StringsAreSorted(order) {
		t.Fatalf("Range order not sorted by content address: %v", order)
	}
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Fatal("Range left the corrupt entry in place")
	}
	// Early stop.
	n := 0
	_ = s.Range(func(string, json.RawMessage) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range ignored the stop signal: visited %d", n)
	}
	if err := (*Store)(nil).Range(func(string, json.RawMessage) bool { return true }); err != nil {
		t.Fatalf("nil store Range: %v", err)
	}
}

// TestVerifyConcurrentWithPut races the operator-facing scan against live
// writers: whatever interleaving the race detector finds, Verify must
// never delete a valid published entry and the store must end complete.
func TestVerifyConcurrentWithPut(t *testing.T) {
	s := open(t)
	const writers, perWriter = 4, 25
	var writeWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d/k%d", w, i)
				if err := s.Put(key, json.RawMessage(`"v"`)); err != nil {
					t.Errorf("Put %s: %v", key, err)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	verifierDone := make(chan struct{})
	go func() {
		defer close(verifierDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := s.Verify(); err != nil {
				t.Errorf("Verify: %v", err)
				return
			}
		}
	}()
	writeWG.Wait()
	close(stop)
	<-verifierDone

	valid, discarded, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if valid != writers*perWriter || discarded != 0 {
		t.Fatalf("final Verify = %d valid, %d discarded; want %d/0", valid, discarded, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, ok := s.Get(fmt.Sprintf("w%d/k%d", w, i)); !ok {
				t.Fatalf("entry w%d/k%d lost", w, i)
			}
		}
	}
}
