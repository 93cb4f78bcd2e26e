package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// FuzzCheckpointEntry writes arbitrary bytes as the entry file for a key
// and reads it back. Get must not panic; a hit must come from an envelope
// with this version, this key and a payload matching its checksum; and a
// rejected file must be deleted so it is rebuilt rather than re-probed.
func FuzzCheckpointEntry(f *testing.F) {
	const key = "unit/v1|fuzz"
	payload := json.RawMessage(`{"cycles":42}`)
	sum := sha256.Sum256(payload)
	good, err := json.Marshal(entry{Version: Version, Key: key, Checksum: hex.EncodeToString(sum[:]), Payload: payload})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(bytes.Replace(good, []byte(`"version":1`), []byte(`"version":2`), 1))
	f.Add(bytes.Replace(good, []byte(key), []byte("unit/v1|other"), 1))
	f.Add(bytes.Replace(good, []byte("42"), []byte("43"), 1))
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
		var e struct {
			Version  int             `json:"version"`
			Key      string          `json:"key"`
			Checksum string          `json:"checksum_sha256"`
			Payload  json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("Get accepted undecodable entry %q: %v", raw, err)
		}
		sum := sha256.Sum256(e.Payload)
		if e.Version != Version || e.Key != key || e.Checksum != hex.EncodeToString(sum[:]) || !bytes.Equal(got, e.Payload) {
			t.Fatalf("Get accepted entry %q: version %d key %q checksum %q, payload %q", raw, e.Version, e.Key, e.Checksum, got)
		}
	})
}
