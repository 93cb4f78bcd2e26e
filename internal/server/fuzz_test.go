package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzSubmit posts arbitrary bodies to one collection through Handler()
// and holds the decoder boundary to its contract: no input panics or
// draws a 5xx, and a malformed body (one that does not decode into the
// spec or does not validate) gets a 400 and admits nothing.
func fuzzSubmit(f *testing.F, path string, malformed func([]byte) bool, seeds ...string) {
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s, err := New(Config{Workers: 1, QueueDepth: 64, runner: instantRunner})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	tracked := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs) + len(s.sweeps)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		before := tracked()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q = %d: %s", path, body, rec.Code, rec.Body)
		}
		if !malformed(body) {
			return
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("malformed POST %s %q = %d, want 400", path, body, rec.Code)
		}
		if after := tracked(); after != before {
			t.Fatalf("malformed POST %s %q admitted work (%d -> %d tracked)", path, body, before, after)
		}
	})
}

// decodeStrict decodes body the way the submit handlers do.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func FuzzSubmitJob(f *testing.F) {
	fuzzSubmit(f, "/v1/jobs", func(body []byte) bool {
		var spec JobSpec
		if decodeStrict(body, &spec) != nil {
			return true
		}
		_, _, err := spec.Resolve()
		return err != nil
	},
		`{"experiment":"fig2","workloads":["BS"]}`,
		`{"experiment":"table4"}`,
		`{"experiment":"fig12","threads":-2}`,
		`{"experiment":"fig12","bogus_knob":1}`,
		`not json`,
		`{}`,
	)
}

func FuzzSubmitSweep(f *testing.F) {
	fuzzSubmit(f, "/v1/sweeps", func(body []byte) bool {
		var spec SweepSpec
		if decodeStrict(body, &spec) != nil {
			return true
		}
		_, _, err := spec.Expand()
		return err != nil
	},
		`{"experiments":["fig2","fig12"],"workloads":["BS"]}`,
		`{"experiments":["table3","table4"],"workloads":["BS"]}`,
		`{"experiments":["fig12","fig12"]}`,
		`{"experiments":["fig12"],"heap_factors":[-3]}`,
		`not json`,
		`{}`,
	)
}
