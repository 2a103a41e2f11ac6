package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobs"
)

// jobInfo is the wire form of a job record. Spec payloads are omitted
// from listings (they can be megabytes for batch jobs); the submit
// response echoes what was accepted via the id.
type jobInfo struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	Progress  float64   `json:"progress"`
	RowsDone  int       `json:"rows_done"`
	RowsTotal int       `json:"rows_total"`
	Resumes   int       `json:"resumes,omitempty"`
	TraceID   string    `json:"trace_id,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	// Pointers rather than `omitzero` tags: that option is Go 1.24+
	// and silently ignored by Go 1.23's encoding/json, and this module
	// supports both toolchains — the wire format must not depend on
	// which one built the daemon.
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

func wireJob(m jobs.Meta) jobInfo {
	return jobInfo{
		ID:         m.ID,
		Kind:       m.Spec.Kind,
		State:      string(m.State),
		Error:      m.Error,
		Progress:   m.Progress(),
		RowsDone:   m.RowsDone,
		RowsTotal:  m.RowsTotal,
		Resumes:    m.Resumes,
		TraceID:    m.TraceID,
		CreatedAt:  m.CreatedAt,
		StartedAt:  wireTime(m.StartedAt),
		FinishedAt: wireTime(m.FinishedAt),
	}
}

// wireTime maps the zero time ("not yet") to an omitted field.
func wireTime(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

// jobSubmitRequest is the POST /v1/jobs body: a kind plus that kind's
// payload under its own field. The kind may be omitted when exactly one
// payload field is present.
type jobSubmitRequest struct {
	Kind     string          `json:"kind,omitempty"`
	Campaign json.RawMessage `json:"campaign,omitempty"`
	Batch    json.RawMessage `json:"batch,omitempty"`
}

func (req *jobSubmitRequest) spec() (jobs.Spec, error) {
	payloads := map[string]json.RawMessage{
		jobs.CampaignKindName: req.Campaign,
		BatchKindName:         req.Batch,
	}
	kind := req.Kind
	if kind == "" {
		for name, p := range payloads {
			if len(p) == 0 {
				continue
			}
			if kind != "" {
				return jobs.Spec{}, errors.New("multiple payloads given; set \"kind\"")
			}
			kind = name
		}
		if kind == "" {
			return jobs.Spec{}, errors.New("missing job payload (\"campaign\" or \"batch\")")
		}
	}
	payload, ok := payloads[kind]
	if !ok {
		return jobs.Spec{}, fmt.Errorf("unknown job kind %q", kind)
	}
	if len(payload) == 0 {
		return jobs.Spec{}, fmt.Errorf("job kind %q without its %q payload", kind, kind)
	}
	return jobs.Spec{Kind: kind, Payload: payload}, nil
}

type jobPayload struct {
	Job  jobInfo           `json:"job"`
	Rows []json.RawMessage `json:"rows,omitempty"`
}

type jobListPayload struct {
	Jobs []jobInfo `json:"jobs"`
	// Next is the cursor for the following page; present only when a
	// limit was given and more jobs remain. Pass it back as ?after=.
	Next string `json:"next,omitempty"`
}

func (a *api) registerJobRoutes(mux *http.ServeMux) {
	if a.jobs == nil {
		disabled := func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusNotImplemented, errors.New(
				"async jobs are disabled; start rpserve with -jobs-dir (or build the handler with HandlerOptions.Jobs)"))
		}
		mux.HandleFunc("/v1/jobs", disabled)
		mux.HandleFunc("/v1/jobs/", disabled)
		return
	}
	mux.HandleFunc("POST /v1/jobs", a.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", a.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", a.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", a.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", a.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.handleJobDelete)
}

func (a *api) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobSubmitRequest
	if err := a.decodeJSON(w, r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	spec, err := req.spec()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	meta, err := a.jobs.Submit(r.Context(), spec)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrClosed):
			w.Header().Set("Retry-After", strconv.Itoa(campaignRetryAfter))
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, jobPayload{Job: wireJob(meta)})
}

// handleJobList lists jobs in the manager's stable (CreatedAt, ID)
// order. ?limit=N pages the listing: the response carries a "next"
// cursor whenever more jobs remain, and ?after=<cursor> resumes behind
// it. The cursor encodes the last item's sort key — not its position —
// so pages stay coherent while jobs are inserted, pruned or deleted
// between requests (a deleted cursor job never breaks the walk).
func (a *api) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", s))
			return
		}
		limit = n
	}
	var afterAt time.Time
	var afterID string
	if s := q.Get("after"); s != "" {
		at, id, err := decodeJobCursor(s)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		afterAt, afterID = at, id
	}

	metas := a.jobs.List() // already sorted by (CreatedAt, ID)
	out := make([]jobInfo, 0, len(metas))
	next := ""
	for _, m := range metas {
		if !afterAt.IsZero() {
			if m.CreatedAt.Before(afterAt) || (m.CreatedAt.Equal(afterAt) && m.ID <= afterID) {
				continue
			}
		}
		if limit > 0 && len(out) == limit {
			next = encodeJobCursor(out[len(out)-1].CreatedAt, out[len(out)-1].ID)
			break
		}
		out = append(out, wireJob(m))
	}
	writeJSON(w, http.StatusOK, jobListPayload{Jobs: out, Next: next})
}

// encodeJobCursor renders a job's sort key as an opaque-ish cursor:
// "<created-at unix nanos>~<id>".
func encodeJobCursor(at time.Time, id string) string {
	return strconv.FormatInt(at.UnixNano(), 10) + "~" + id
}

func decodeJobCursor(s string) (time.Time, string, error) {
	at, id, ok := strings.Cut(s, "~")
	if !ok {
		return time.Time{}, "", fmt.Errorf("bad cursor %q", s)
	}
	ns, err := strconv.ParseInt(at, 10, 64)
	if err != nil {
		return time.Time{}, "", fmt.Errorf("bad cursor %q", s)
	}
	return time.Unix(0, ns).UTC(), id, nil
}

func (a *api) handleJobGet(w http.ResponseWriter, r *http.Request) {
	meta, ok := a.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	rows, err := a.jobs.Rows(meta.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, jobPayload{Job: wireJob(meta), Rows: rows})
}

func (a *api) handleJobResult(w http.ResponseWriter, r *http.Request) {
	meta, ok := a.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	if meta.State != jobs.StateSucceeded {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s has no result yet (state %s)", meta.ID, meta.State))
		return
	}
	rows, err := a.jobs.Rows(meta.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, jobPayload{Job: wireJob(meta), Rows: rows})
	case "csv":
		if meta.Spec.Kind != jobs.CampaignKindName {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("format=csv applies to campaign jobs, not %q", meta.Spec.Kind))
			return
		}
		var cfg experiments.Config
		if err := json.Unmarshal(meta.Spec.Payload, &cfg); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		campaignRows, err := jobs.CampaignRows(rows)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		res := &experiments.Results{Config: cfg, Rows: campaignRows}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		res.WriteCSV(w)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q", format))
	}
}

// jobEventsPayload answers GET /v1/jobs/{id}/events.
type jobEventsPayload struct {
	ID     string       `json:"id"`
	Events []jobs.Event `json:"events"`
}

// handleJobEvents serves the job's persisted timeline: queued, started,
// per-chunk dispatches (for sharded kinds), row checkpoints, finished —
// each stamped with the job's trace ID.
func (a *api) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, err := a.jobs.Events(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		if events == nil {
			events = []jobs.Event{}
		}
		writeJSON(w, http.StatusOK, jobEventsPayload{ID: id, Events: events})
	}
}

// handleJobDelete cancels a live job (queued or running — the record
// stays, reaching the canceled state) and deletes the record of a
// finished one. The decision is made atomically by the manager, so a
// job that finishes concurrently with the DELETE is deleted coherently
// instead of answering a confusing "already finished" conflict.
func (a *api) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, deleted, err := a.jobs.CancelOrDelete(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	case deleted:
		writeJSON(w, http.StatusOK, map[string]any{"deleted": true, "id": id})
	default:
		writeJSON(w, http.StatusAccepted, jobPayload{Job: wireJob(meta)})
	}
}
