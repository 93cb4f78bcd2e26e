package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"charonsim/internal/checkpoint"
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

// FuzzJournalReplay stores up to two arbitrary payloads under arbitrary
// keys as valid journal entries (an empty second payload stores one
// record) and boots a server over them. New must neither panic nor fail,
// and afterwards each record is recovered (a job or sweep with the key's
// id is tracked), kept as the result cache (a current-schema `done` job
// record whose spec resolves to its key) or garbage-collected. Two
// records let a sweep manifest meet an unfinished child, the one case
// that recovers a sweep.
func FuzzJournalReplay(f *testing.F) {
	job := JobSpec{Experiment: "fig12", Workloads: []string{"BS"}}
	_, jobKey, _ := job.Resolve()
	batch := SweepSpec{Experiments: []string{"table3", "table4"}, Workloads: []string{"BS"}}
	children, sweepKey, _ := batch.Expand()
	created := time.Unix(0, 0).UTC()
	manifest := sweepRecord{Schema: journalSchema, Kind: journalKindSweep, ID: jobID(sweepKey), Key: sweepKey, Spec: batch, Created: created}
	child := children[0]
	type record struct {
		key string
		rec any
	}
	seeds := [][]record{
		{{jobKey, journalRecord{Schema: journalSchema, ID: jobID(jobKey), Key: jobKey, Spec: job, State: StateRunning, Created: created}}},
		{{jobKey, journalRecord{Schema: journalSchema, ID: jobID(jobKey), Key: jobKey, Spec: job, State: StateDone, Text: "r\n", Created: created}}},
		{{jobKey, journalRecord{Schema: journalSchema, Key: jobKey, Spec: JobSpec{Experiment: "no-such"}, State: StateQueued}}},
		{{"job/v1|stale", journalRecord{Schema: journalSchema, Key: "job/v1|stale", Spec: job, State: StateQueued}}},
		{{sweepKey, manifest}},
		{{sweepKey, sweepRecord{Schema: journalSchema, Kind: journalKindSweep, Key: sweepKey, Spec: SweepSpec{Experiments: []string{"table3"}}}}},
		{{jobKey, "not a record"}},
		{{sweepKey, manifest}, {child.key, journalRecord{Schema: journalSchema, ID: jobID(child.key), Key: child.key, Spec: child.spec, State: StateQueued, Created: created}}},
		{{jobKey, journalRecord{Schema: 1, ID: jobID(jobKey), Key: jobKey, Spec: job, State: StateDone, Text: "r\n", Created: created}}},
		{{jobKey, journalRecord{Schema: journalSchema, ID: jobID(jobKey), Key: jobKey, Spec: job, State: StateDone, Text: "\xff\n\x00", Created: created}}},
	}
	for _, seed := range seeds {
		var keys [2]string
		var payloads [2][]byte
		for i, r := range seed {
			raw, err := encodeRecord(r.rec)
			if err != nil {
				f.Fatal(err)
			}
			keys[i], payloads[i] = r.key, raw
		}
		f.Add(keys[0], payloads[0], keys[1], payloads[1])
	}
	// A schema-2 done record: one JSON object, report inside, no head line.
	f.Add(jobKey, []byte(`{"schema":2,"key":"`+jobKey+`","spec":{"experiment":"fig12","workloads":["BS"]},"state":"done","text":"r\n"}`), "", []byte(nil))
	f.Fuzz(func(t *testing.T, key string, payload []byte, key2 string, payload2 []byte) {
		dir := t.TempDir()
		st, err := checkpoint.Open(filepath.Join(dir, "journal"))
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{key}
		if len(payload2) > 0 {
			keys = append(keys, key2)
		}
		for i, p := range [][]byte{payload, payload2}[:len(keys)] {
			if err := st.Put(keys[i], p); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(Config{Workers: 1, CacheDir: dir, runner: instantRunner})
		if err != nil {
			t.Fatalf("New over a fuzzed journal: %v", err)
		}
		defer s.Close()
		for _, k := range keys {
			s.mu.Lock()
			_, isJob := s.jobs[jobID(k)]
			_, isSweep := s.sweeps[jobID(k)]
			s.mu.Unlock()
			payload, ok := st.Get(k)
			if !ok || isJob || isSweep {
				continue
			}
			var rec journalRecord
			if _, ok := decodeRecord(payload, &rec); !ok || !rec.servable(k) {
				t.Fatalf("record under %q was neither recovered, kept as done, nor collected", k)
			}
			if _, key, err := rec.Spec.Resolve(); err != nil || key != k {
				t.Fatalf("done record under %q kept though its spec resolves to %q (%v)", k, key, err)
			}
		}
	})
}
