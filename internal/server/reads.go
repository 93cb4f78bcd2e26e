package server

import (
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"
)

// tracked is a job or a sweep as charond's tables and read endpoints see
// it: a status document over an ordered group of member jobs — the job
// itself, or the sweep's children in grid order.
type tracked[V any] interface {
	view() V
	// retention is what the retention policy and list order read.
	retention() (terminal, fetched bool, created time.Time)
	members() []*job
	// markFetched records that the terminal answer reached a caller, for
	// the entry and every member.
	markFetched()
}

// resource serves the three GET endpoints of one table: the list, the
// status document and the result.
type resource[T tracked[V], V any] struct {
	s     *Server
	noun  string // "job" or "sweep"
	table map[string]T
}

func (rs resource[T, V]) register(mux *http.ServeMux) {
	base := "GET /v1/" + rs.noun + "s"
	mux.HandleFunc(base, rs.list)
	mux.HandleFunc(base+"/{id}", rs.get)
	mux.HandleFunc(base+"/{id}/result", rs.result)
}

// lookup returns the entry the request's {id} names, or writes the 404.
func (rs resource[T, V]) lookup(w http.ResponseWriter, r *http.Request) (T, bool) {
	id := r.PathValue("id")
	rs.s.mu.Lock()
	e, ok := rs.table[id]
	rs.s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown %s %q", rs.noun, id)
	}
	return e, ok
}

// list answers with every tracked entry, newest first, id as tie-break.
func (rs resource[T, V]) list(w http.ResponseWriter, _ *http.Request) {
	type row struct {
		id      string
		created time.Time
		e       T
	}
	rs.s.mu.Lock()
	rows := make([]row, 0, len(rs.table))
	for id, e := range rs.table {
		rows = append(rows, row{id: id, e: e})
	}
	rs.s.mu.Unlock()
	for i := range rows {
		_, _, rows[i].created = rows[i].e.retention()
	}
	slices.SortFunc(rows, func(a, b row) int {
		if c := b.created.Compare(a.created); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	views := make([]V, len(rows))
	for i, r := range rows {
		views[i] = r.e.view()
	}
	writeJSON(w, http.StatusOK, map[string]any{rs.noun + "s": views})
}

// get answers with the status document, and a Retry-After hint while any
// member is pending.
func (rs resource[T, V]) get(w http.ResponseWriter, r *http.Request) {
	e, ok := rs.lookup(w, r)
	if !ok {
		return
	}
	if hint := rs.s.pollHint(e.members()); hint > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(hint))
	}
	writeJSON(w, http.StatusOK, e.view())
}

// result serves the members' rendered reports concatenated in order. Each
// came through cli.RenderReports, the formatter the CLI uses, so a sweep's
// combined document is byte-identical to running its children's charonsim
// invocations and concatenating their reports. While any member is
// pending the answer is 202 with the status document; once all are
// terminal, the first failed or canceled member answers 500 or 410.
func (rs resource[T, V]) result(w http.ResponseWriter, r *http.Request) {
	e, ok := rs.lookup(w, r)
	if !ok {
		return
	}
	members := e.members()
	if hint := rs.s.pollHint(members); hint > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(hint))
		writeJSON(w, http.StatusAccepted, e.view())
		return
	}
	e.markFetched()
	texts := make([]string, len(members))
	for i, j := range members {
		state, text, errMsg := j.snapshot()
		switch state {
		case StateFailed:
			writeError(w, http.StatusInternalServerError, "job %s (%s) failed: %s", j.id, j.spec.Experiment, errMsg)
			return
		case StateCanceled:
			writeError(w, http.StatusGone, "job %s (%s) was canceled: %s", j.id, j.spec.Experiment, errMsg)
			return
		}
		texts[i] = text
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, text := range texts {
		io.WriteString(w, text)
	}
}

// pollHint is the Retry-After hint, in seconds, for a poller of a job or
// sweep with these members, or 0 once every member is terminal. The
// resource finishes with its deepest queued member, so that member's queue
// position governs: only the jobs ahead of it plus its own run feed the
// estimate, and a member at the head of a deep queue is never told to
// wait behind the whole queue. A member popped but not yet running is
// next (position 0). With no member queued the hint is the 1-second
// floor.
func (s *Server) pollHint(members []*job) int {
	deepest, pending := -1, false
	for _, j := range members {
		switch state, _, _ := j.snapshot(); state {
		case StateQueued:
			deepest = max(deepest, s.queue.position(j.id), 0)
			pending = true
		case StateRunning:
			pending = true
		}
	}
	switch {
	case !pending:
		return 0
	case deepest < 0:
		return 1
	}
	return retryAfterSeconds(s.estimatedWait(deepest + 1))
}
