package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"calgo/internal/sse"
)

// Handler returns the job API, mountable on the ops mux (cald mounts it
// at /jobs via serve.Server.Mount):
//
//	POST /jobs             submit; 202 + job doc (200 when answered from
//	                       the verdict cache), 400 bad request, 429 +
//	                       Retry-After when shed or rate-limited, 503
//	                       when draining
//	GET  /jobs             list all known jobs
//	GET  /jobs/{id}        poll one job; ?watch=1 streams state changes
//	                       as Server-Sent Events until the job finishes
//	POST /jobs/{id}/cancel cancel a pending or running job
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", m.handleSubmit)
	mux.HandleFunc("GET /jobs", m.handleList)
	mux.HandleFunc("GET /jobs/{id}", m.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", m.handleCancel)
	return mux
}

// ClientHeader names the submitter for rate limiting; absent, the peer
// address (without port) is the client identity.
const ClientHeader = "X-Calgo-Client"

func clientID(r *http.Request) string {
	if id := r.Header.Get(ClientHeader); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (the header has no sub-second syntax).
func retryAfterSeconds(d time.Duration) string {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%d", s)
}

// writeJSON replies with v as an indented JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone
}

// writeError maps the managers' error taxonomy onto HTTP statuses, the
// same for the job and the stream API: 400 for a bad request, 429 +
// Retry-After when shed or rate-limited, 503 + Retry-After while
// draining, 404 for an unknown id and 500 otherwise. what names the
// resource in the 404 reply ("job", "stream").
func writeError(w http.ResponseWriter, err error, what string) {
	var reqErr *RequestError
	var over *OverloadError
	switch {
	case errors.As(err, &reqErr):
		http.Error(w, reqErr.Error(), http.StatusBadRequest)
	case errors.As(err, &over):
		w.Header().Set("Retry-After", retryAfterSeconds(over.RetryAfter))
		http.Error(w, over.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		http.Error(w, "daemon is draining; retry against the restarted instance", http.StatusServiceUnavailable)
	case errors.Is(err, ErrNotFound):
		http.Error(w, "no such "+what, http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// watch streams snap, then every update, as SSE frames (the same
// plumbing contract as /statusz?watch=1), ending after the terminal
// frame closes updates. A drain (stopping closes) ends the stream early
// with an explicit drain event, so clients know to re-poll the
// restarted daemon.
func watch[T any](w http.ResponseWriter, r *http.Request, stopping <-chan struct{}, snap T, updates <-chan T) {
	stream, ok := sse.Start(w)
	if !ok || !stream.Data(snap) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-stopping:
			stream.Event("drain")
			return
		case v, open := <-updates:
			if !open || !stream.Data(v) {
				return // after the terminal frame, or with the client gone
			}
		}
	}
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Reject oversized bodies before buffering them: the history limit
	// plus headroom for the JSON envelope.
	r.Body = http.MaxBytesReader(w, r.Body, int64(m.cfg.MaxHistoryBytes)+64<<10)
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	job, err := m.Submit(clientID(r), req)
	if err != nil {
		writeError(w, err, "job")
		return
	}
	status := http.StatusAccepted
	if job.State.Terminal() {
		status = http.StatusOK // answered from the verdict cache
	}
	writeJSON(w, status, job)
}

func (m *Manager) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, m.List())
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("watch") != "" {
		snap, updates, stop, err := m.Watch(id)
		if err != nil {
			writeError(w, err, "job")
			return
		}
		defer stop()
		watch(w, r, m.Stopping(), snap, updates)
		return
	}
	job, ok := m.Get(id)
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := m.Cancel(id); err != nil {
		writeError(w, err, "job")
		return
	}
	job, _ := m.Get(id)
	writeJSON(w, http.StatusOK, job)
}
