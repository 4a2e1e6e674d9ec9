// Package sse writes Server-Sent Events: the text/event-stream framing
// shared by the ops server's /statusz?watch=1 and cald's job and stream
// watches. Every frame is flushed as it is written, so a watcher sees
// each state change as it happens.
package sse

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Stream is an event stream open on one response.
type Stream struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// Start opens an event stream on w by setting the event-stream headers.
// When w cannot flush it replies 501 and returns false.
func Start(w http.ResponseWriter) (*Stream, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	return &Stream{w: w, fl: fl}, true
}

// Data writes v as one `data: <json>` frame. It returns false when the
// frame could not be written, which ends the stream.
func (s *Stream) Data(v any) bool {
	b, err := json.Marshal(v)
	if err != nil {
		return false
	}
	if _, err := fmt.Fprintf(s.w, "data: %s\n\n", b); err != nil {
		return false
	}
	s.fl.Flush()
	return true
}

// Event writes a named event with an empty JSON payload, such as the
// "drain" and "bye" events that tell a watcher why its stream ended.
func (s *Stream) Event(name string) {
	fmt.Fprintf(s.w, "event: %s\ndata: {}\n\n", name) //nolint:errcheck // stream ends next
	s.fl.Flush()
}
