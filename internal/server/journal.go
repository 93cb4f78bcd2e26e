package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"charonsim/internal/atomicio"
	"charonsim/internal/checkpoint"
	"charonsim/internal/metrics"
)

// journalSchema versions the journal record payload; bump it whenever the
// record changes meaning so a restart against an old journal directory
// discards cleanly instead of replaying misread state.
const journalSchema = 1

// journalRecord is one job's durable state, stored under the job's
// canonical key in a checkpoint envelope (version + key + checksum,
// atomic rename, fsync'd file and directory). The record is rewritten
// whole on every state transition — the envelope's atomicity makes each
// rewrite an append in effect: a crash leaves either the previous
// complete record or the new one, never a blend.
type journalRecord struct {
	Schema    int       `json:"schema"`
	Kind      string    `json:"kind,omitempty"` // "" = job (see sweepRecord for "sweep")
	ID        string    `json:"id"`
	Key       string    `json:"key"`
	Spec      JobSpec   `json:"spec"`
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	Created   time.Time `json:"created"`
	Updated   time.Time `json:"updated"`
	Recovered int       `json:"recovered,omitempty"` // crash-replay generations
}

// unfinished reports whether a replayed record represents work the server
// still owes an answer for.
func (r journalRecord) unfinished() bool {
	return r.State == StateQueued || r.State == StateRunning
}

// journal is charond's write-ahead job log: every accepted job descriptor
// is durably recorded before its 202 is returned, every state transition
// is persisted, and on boot the server replays the journal — resubmitting
// unfinished jobs to the worker pool (which resume from their per-unit
// checkpoints) and garbage-collecting terminal entries.
//
// Storage rides the checkpoint layer, so the journal inherits its crash
// properties: atomic publish, checksummed envelopes, self-healing reads
// that discard torn or truncated records.
type journal struct {
	st     *checkpoint.Store
	health *degrader

	mu  sync.Mutex
	seq map[string]uint64 // highest seq written per id; stale writers skip
}

// openJournal opens (creating if needed) the journal directory.
func openJournal(dir string, fsys atomicio.FS, health *degrader) (*journal, error) {
	st, err := checkpoint.OpenFS(dir, fsys)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &journal{st: st, health: health, seq: map[string]uint64{}}, nil
}

// record durably persists j's current state. Safe under concurrent
// transitions of the same job: each caller snapshots the job (with its
// seq, drawn from the server-wide counter at every transition) under
// j.mu, and the journal drops snapshots older than the newest it has
// written, so a late writer — this job's, or one of an earlier job under
// the same id — can never roll the id's durable state backwards.
//
// A write failure degrades the journal (gauge + one-shot log via the
// shared degrader) rather than failing the job — availability over
// durability once the disk is already misbehaving; the next successful
// write re-arms the crash-recovery promise.
func (jl *journal) record(j *job) {
	if jl == nil {
		return
	}
	j.mu.Lock()
	rec := journalRecord{
		Schema: journalSchema, ID: j.id, Key: j.key, Spec: j.spec,
		State: j.state, Error: j.errMsg,
		Created: j.created, Updated: time.Now(),
		Recovered: j.recovered,
	}
	seq := j.seq
	j.mu.Unlock()
	jl.put(j.id, j.key, seq, rec)
}

// put durably writes one job record or sweep manifest under key, unless a
// write with the same or a newer seq already landed for id.
func (jl *journal) put(id, key string, seq uint64, rec any) {
	if jl == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		jl.health.observe(fmt.Errorf("journal: encode %s: %w", id, err))
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if last, ok := jl.seq[id]; ok && seq <= last {
		return // a newer transition already landed
	}
	if err := jl.st.Put(key, payload); err != nil {
		jl.health.observe(err)
		return
	}
	jl.seq[id] = seq
	jl.health.observe(nil)
}

// replay loads every journal record, splitting it into unfinished jobs to
// resubmit, sweep manifests, and terminal keys to garbage-collect.
// Records from a different schema, or that do not decode under the key
// they are stored at, are treated as terminal: logged and collected,
// never replayed wrong. Whether a record's spec still resolves, and
// whether a manifest still has a child to recover, is recovery's check.
func (jl *journal) replay(log *slog.Logger) (pending []journalRecord, sweeps []sweepRecord, terminalKeys []string, err error) {
	if jl == nil {
		return nil, nil, nil, nil
	}
	err = jl.st.Range(func(key string, payload json.RawMessage) bool {
		var head struct {
			Schema int    `json:"schema"`
			Kind   string `json:"kind"`
		}
		if json.Unmarshal(payload, &head) != nil || head.Schema != journalSchema {
			log.Warn("journal: discarding unreadable record", "key", key)
			terminalKeys = append(terminalKeys, key)
			return true
		}
		if head.Kind == journalKindSweep {
			var rec sweepRecord
			if json.Unmarshal(payload, &rec) != nil || rec.Key != key {
				log.Warn("journal: discarding unreadable sweep manifest", "key", key)
				terminalKeys = append(terminalKeys, key)
				return true
			}
			sweeps = append(sweeps, rec)
			return true
		}
		var rec journalRecord
		if json.Unmarshal(payload, &rec) != nil || rec.Key != key {
			log.Warn("journal: discarding unreadable record", "key", key)
			terminalKeys = append(terminalKeys, key)
			return true
		}
		if !rec.unfinished() {
			terminalKeys = append(terminalKeys, key)
			return true
		}
		pending = append(pending, rec)
		return true
	})
	return pending, sweeps, terminalKeys, err
}

// gc deletes terminal records. Best-effort: a record that refuses to die
// is retried at the next boot.
func (jl *journal) gc(keys []string) int {
	if jl == nil {
		return 0
	}
	n := 0
	for _, key := range keys {
		if jl.st.Delete(key) == nil {
			n++
		}
	}
	return n
}

// lastWriteError exposes the underlying store's diagnostic record.
func (jl *journal) lastWriteError() string {
	if jl == nil {
		return ""
	}
	return jl.st.LastWriteError()
}

// degrader tracks the health of one persistence surface (the result
// cache, the journal). The first write failure flips it into an
// explicitly-degraded mode — one warning log with the cause, a counted
// transition, a 0→1 gauge at snapshot time — instead of failures drowning
// silently in a counter. Every later write doubles as a recovery probe:
// the first success flips back with a recovery log.
type degrader struct {
	name string // metrics/log identifier, e.g. "result_cache"
	log  *slog.Logger
	reg  *metrics.Registry

	mu       sync.Mutex
	degraded bool
}

// observe folds one write outcome into the health state.
func (d *degrader) observe(err error) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case err != nil && !d.degraded:
		d.degraded = true
		d.reg.AddUint("server/"+d.name+"/degraded_transitions", 1)
		d.log.Warn("persistence degraded; disabling until a write succeeds",
			"surface", d.name, "err", err.Error())
	case err == nil && d.degraded:
		d.degraded = false
		d.reg.AddUint("server/"+d.name+"/recoveries", 1)
		d.log.Info("persistence recovered; re-enabled", "surface", d.name)
	}
}

// isDegraded reports the current health state.
func (d *degrader) isDegraded() bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded
}
