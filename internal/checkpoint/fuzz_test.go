package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// FuzzCheckpointEntry writes arbitrary bytes as the entry file for a key
// and reads it back. Get must not panic; a hit must come from a file
// whose first line is a head with this version, this key and the
// checksum of the bytes after that line, which Get must return; and a
// rejected file must be deleted so it is rebuilt rather than re-probed.
func FuzzCheckpointEntry(f *testing.F) {
	const key = "unit/v1|fuzz"
	good := encode(key, []byte(`{"cycles":42}`))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(bytes.Replace(good, []byte(fmt.Sprintf(`"version":%d`, Version)), []byte(`"version":1`), 1))
	f.Add(bytes.Replace(good, []byte(key), []byte("unit/v1|other"), 1))
	f.Add(bytes.Replace(good, []byte("42"), []byte("43"), 1))
	f.Add(bytes.Replace(good, []byte("\n"), nil, 1))
	f.Add(encode(key, []byte("raw\nbytes\xff")))
	f.Add(encode(key, nil))
	f.Add(v1Entry(f, key, []byte(`{"cycles":42}`)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := s.pathFor(key)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key)
		if !ok {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("rejected entry %q was not deleted (stat: %v)", raw, err)
			}
			return
		}
		line, payload, found := bytes.Cut(raw, []byte("\n"))
		var h struct {
			Version  int    `json:"version"`
			Key      string `json:"key"`
			Checksum string `json:"checksum_sha256"`
		}
		if !found || json.Unmarshal(line, &h) != nil {
			t.Fatalf("Get accepted an entry with no head line: %q", raw)
		}
		sum := sha256.Sum256(payload)
		if h.Version != Version || h.Key != key || h.Checksum != hex.EncodeToString(sum[:]) || !bytes.Equal(got, payload) {
			t.Fatalf("Get accepted entry %q: version %d key %q checksum %q, payload %q", raw, h.Version, h.Key, h.Checksum, got)
		}
	})
}
