package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"charonsim/internal/atomicio"
	"charonsim/internal/checkpoint"
	"charonsim/internal/metrics"
)

// journalSchema versions the journal record payload; bump it whenever the
// record changes meaning so a restart against an old journal directory
// discards cleanly instead of replaying misread state. Schema 2 added the
// rendered report to `done` records, which made the journal the result
// cache; schema 3 moved the report out of the JSON, after the head line
// (encodeRecord). A record of another schema, `done` or not, is collected
// at boot.
const journalSchema = 3

// journalRecord is one job's durable state, stored under the job's
// canonical key as a checkpoint entry (atomic rename, fsync'd file and
// directory, a head line with version, key and checksum). The record is
// rewritten whole on every state transition — the entry's atomicity makes
// each rewrite an append in effect: a crash leaves either the previous
// complete record or the new one, never a blend. A `done` record carries
// the rendered report and outlives the boot that reads it: it is the
// result cache admission consults.
type journalRecord struct {
	Schema    int       `json:"schema"`
	Kind      string    `json:"kind,omitempty"` // "" = job (see sweepRecord for "sweep")
	ID        string    `json:"id"`
	Key       string    `json:"key"`
	Spec      JobSpec   `json:"spec"`
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	Text      string    `json:"-"` // the report, on a done record: the payload after the head line
	Created   time.Time `json:"created"`
	Updated   time.Time `json:"updated"`
	Recovered int       `json:"recovered,omitempty"` // crash-replay generations
}

// encodeRecord lays out the payload of a job record or sweep manifest:
// its head, the record as one line of JSON, then a newline and a job
// record's report verbatim (none but on a `done` record). json.Marshal
// never emits a raw newline, so the first one ends the head.
func encodeRecord(rec any) ([]byte, error) {
	head, err := json.Marshal(rec)
	r, _ := rec.(journalRecord)
	return append(append(head, '\n'), r.Text...), err
}

// decodeRecord decodes the head of a record payload into head and returns
// the report bytes after it, which it never reads.
func decodeRecord(payload []byte, head any) (report []byte, ok bool) {
	line, report, ok := bytes.Cut(payload, []byte{'\n'})
	return report, ok && json.Unmarshal(line, head) == nil
}

// unfinished reports whether a replayed record represents work the server
// still owes an answer for.
func (r journalRecord) unfinished() bool {
	return r.State == StateQueued || r.State == StateRunning
}

// servable reports whether r is a current-schema `done` job record stored
// under key — one whose report admission may serve.
func (r journalRecord) servable(key string) bool {
	return r.Schema == journalSchema && r.Kind == "" && r.State == StateDone && r.Key == key
}

// journal is charond's one job-level durable store: every accepted job
// descriptor is durably recorded before its 202 is returned, every state
// transition is persisted, and a `done` record holds the job's report.
// On boot the server replays the journal — resubmitting unfinished jobs
// to the worker pool (which resume from their per-unit checkpoints),
// keeping `done` records as the result cache and garbage-collecting the
// rest.
//
// Storage rides the checkpoint layer, so the journal inherits its crash
// properties: atomic publish, checksummed entries, self-healing reads
// that discard torn or truncated records.
//
// A write failure degrades the journal rather than failing the job —
// availability over durability once the disk is already misbehaving. The
// first failure flips it into an explicitly-degraded mode (one warning
// log with the cause, a counted transition, the server/journal_degraded
// gauge); every later write doubles as a recovery probe, and the first
// success flips it back and re-arms the crash-recovery promise.
type journal struct {
	st       *checkpoint.Store
	log      *slog.Logger
	reg      *metrics.Registry
	degraded atomic.Bool
}

// openJournal opens (creating if needed) the journal directory.
func openJournal(dir string, fsys atomicio.FS, log *slog.Logger, reg *metrics.Registry) (*journal, error) {
	st, err := checkpoint.OpenFS(dir, fsys)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &journal{st: st, log: log, reg: reg}, nil
}

// record durably persists j's current state, its report included once
// it is done. Callers hold j.mu — or, at admission, still own j alone —
// so every write for a job lands in the critical section of the
// transition it records. That orders a job's writes, and a replacement
// under the same key is admitted only after its predecessor's terminal
// state (and so its terminal write) is visible: no write can roll an
// id's durable state backwards.
func (jl *journal) record(j *job) {
	if jl == nil {
		return
	}
	jl.put(j.key, journalRecord{
		Schema: journalSchema, ID: j.id, Key: j.key, Spec: j.spec,
		State: j.state, Error: j.errMsg, Text: j.text,
		Created: j.created, Updated: time.Now(),
		Recovered: j.recovered,
	})
}

// put durably writes one job record or sweep manifest under key.
func (jl *journal) put(key string, rec any) {
	if jl == nil {
		return
	}
	payload, err := encodeRecord(rec)
	if err != nil {
		jl.observe(fmt.Errorf("journal: encode %q: %w", key, err))
		return
	}
	jl.observe(jl.st.Put(key, payload))
}

// observe folds one write outcome into the degraded-mode state.
func (jl *journal) observe(err error) {
	switch {
	case err != nil && jl.degraded.CompareAndSwap(false, true):
		jl.reg.AddUint("server/journal/degraded_transitions", 1)
		jl.log.Warn("journal degraded; disabling until a write succeeds", "err", err.Error())
	case err == nil && jl.degraded.CompareAndSwap(true, false):
		jl.reg.AddUint("server/journal/recoveries", 1)
		jl.log.Info("journal recovered; re-enabled")
	}
}

// isDegraded reports whether the last journal write failed.
func (jl *journal) isDegraded() bool {
	return jl != nil && jl.degraded.Load()
}

// doneText returns the report of the `done` record stored under key:
// admission's result cache.
func (jl *journal) doneText(key string) (string, bool) {
	if jl == nil {
		return "", false
	}
	payload, ok := jl.st.Get(key)
	if !ok {
		return "", false
	}
	var rec journalRecord
	report, ok := decodeRecord(payload, &rec)
	if !ok || !rec.servable(key) {
		return "", false
	}
	return string(report), true
}

// bootRecord is one journal record's head as boot decodes it, in one
// pass: a job record's fields (a sweep manifest's are a subset of them),
// with the spec kept raw until the kind names its type.
type bootRecord struct {
	journalRecord
	Spec json.RawMessage `json:"spec"`
}

// replay loads every journal record's head — never a report — splitting
// the records into job records to recover or keep (unfinished and `done`
// ones), sweep manifests, and keys to garbage-collect. Records from a different
// schema, that do not decode under the key they are stored at (a spec
// included), or that ended failed or canceled are collected: logged when
// unreadable, never replayed wrong. Whether a record's spec still
// resolves, and whether a manifest still has a child to recover, is
// recovery's check.
func (jl *journal) replay() (jobs []journalRecord, sweeps []sweepRecord, gcKeys []string, err error) {
	if jl == nil {
		return nil, nil, nil, nil
	}
	err = jl.st.Range(func(key string, payload []byte) bool {
		var rec bootRecord
		_, ok := decodeRecord(payload, &rec)
		ok = ok && rec.Schema == journalSchema && rec.Key == key
		switch {
		case ok && rec.Kind == journalKindSweep:
			m := sweepRecord{Schema: rec.Schema, Kind: rec.Kind, ID: rec.ID, Key: rec.Key, Created: rec.Created}
			if ok = json.Unmarshal(rec.Spec, &m.Spec) == nil; ok {
				sweeps = append(sweeps, m)
			}
		case ok && json.Unmarshal(rec.Spec, &rec.journalRecord.Spec) == nil:
			if rec.unfinished() || rec.State == StateDone {
				jobs = append(jobs, rec.journalRecord)
			} else {
				gcKeys = append(gcKeys, key)
			}
		default:
			ok = false
		}
		if !ok {
			jl.log.Warn("journal: discarding unreadable record", "key", key)
			gcKeys = append(gcKeys, key)
		}
		return true
	})
	return jobs, sweeps, gcKeys, err
}
