package jobs

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"calgo/internal/history"
	"calgo/internal/obs"
	"calgo/internal/stream"
)

// StreamSchema versions the stream JSON document served by the /streams
// API; the verdict payload inside it is a calgo.stream/v1 verdict frame
// (see EXPERIMENTS.md, "Streaming checking").
const StreamSchema = "calgo.stream/v1"

// StreamStates.
const (
	// StreamOpen: the stream accepts events.
	StreamOpen = "open"
	// StreamClosed: terminal; end-of-stream checks have run and the
	// verdict is final. Closed streams stay queryable until evicted.
	StreamClosed = "closed"
)

// StreamRequest opens a stream: the specification vocabulary is the one
// the job API uses (SpecByName), plus streaming knobs.
type StreamRequest struct {
	// Spec/Object/Threads select the specification, as in Request.
	Spec    string `json:"spec"`
	Object  string `json:"object,omitempty"`
	Threads int    `json:"threads,omitempty"`
	// Engine selects the streaming decision path: auto (default), dfs,
	// monitor.
	Engine string `json:"engine,omitempty"`
	// Window and CheckEvery override the server defaults; both are
	// clamped by the server-wide maxima, never raised.
	Window     int `json:"window,omitempty"`
	CheckEvery int `json:"check_every,omitempty"`
}

// StreamDoc is one stream's served document: identity, lifecycle state
// and the current verdict frame.
type StreamDoc struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	// Client identifies the opener (the X-Calgo-Client header, or the
	// peer address), for admission control and diagnostics.
	Client string `json:"client,omitempty"`
	// State is "open" or "closed".
	State string `json:"state"`
	// Request holds the effective parameters after server-side clamping.
	Request   StreamRequest  `json:"request"`
	CreatedNS int64          `json:"created_unix_ns"`
	ClosedNS  int64          `json:"closed_unix_ns,omitempty"`
	Verdict   stream.Verdict `json:"verdict"`
}

// StreamConfig configures a StreamManager. The zero value is usable.
type StreamConfig struct {
	// MaxStreams bounds concurrently open streams; at the bound new
	// opens are shed with 429 + Retry-After (default 16).
	MaxStreams int
	// Rate is the per-client sustained stream-open rate per second
	// (0 = unlimited); Burst is the token-bucket depth (default 4).
	Rate  float64
	Burst int
	// MaxBatchBytes bounds one POSTed event batch (default 1 MiB);
	// MaxBatchEvents bounds its event count (default 65536). Streams
	// themselves are unbounded — that is the point — but each ingest
	// must fit in memory.
	MaxBatchBytes  int
	MaxBatchEvents int
	// Window and CheckEvery default (and clamp) the per-stream knobs
	// (defaults stream.DefaultWindow / stream.DefaultCheckEvery).
	Window     int
	CheckEvery int
	// IdleTimeout closes streams that have not seen an event for this
	// long — the final verdict is computed and kept, the resident state
	// released (default 5m; negative disables).
	IdleTimeout time.Duration
	// MaxClosed bounds retained closed streams, evicted oldest-first
	// (default 64).
	MaxClosed int
	// Metrics receives the manager's streams.* counters and gauges, and
	// each stream's own stream.* counters (stream.events counts the
	// accepted events); one registry may be shared with the job manager
	// (default: a private registry).
	Metrics *obs.Metrics
	// Logger receives lifecycle diagnostics (default: silent).
	Logger *slog.Logger
	// OnClose, when set, observes every stream as it closes — cald
	// publishes the final verdicts on /runsz.
	OnClose func(StreamDoc)
}

// StreamManager owns the stream table: admission-controlled opens,
// per-stream ingestion, verdict watching and idle reaping. All methods
// are safe for concurrent use.
type StreamManager struct {
	cfg     StreamConfig
	log     *slog.Logger
	limiter *limiter

	mu       sync.Mutex
	streams  map[string]*servedStream
	order    []string
	nClosed  int
	nextID   int
	stopped  bool
	draining atomic.Bool
	stopCh   chan struct{}

	cOpened, cClosed, cShed, cRateLimited *obs.Counter
	gOpen                                 *obs.Gauge
}

type servedStream struct {
	doc      StreamDoc
	s        *stream.Stream
	watchers []chan StreamDoc
	idle     *time.Timer
}

// NewStreamManager builds the stream service.
func NewStreamManager(cfg StreamConfig) *StreamManager {
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 16
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 4
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 1 << 20
	}
	if cfg.MaxBatchEvents <= 0 {
		cfg.MaxBatchEvents = 1 << 16
	}
	if cfg.Window <= 0 {
		cfg.Window = stream.DefaultWindow
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = stream.DefaultCheckEvery
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.MaxClosed <= 0 {
		cfg.MaxClosed = 64
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	m := &StreamManager{
		cfg:          cfg,
		log:          cfg.Logger,
		limiter:      newLimiter(cfg.Rate, cfg.Burst),
		streams:      make(map[string]*servedStream),
		stopCh:       make(chan struct{}),
		cOpened:      cfg.Metrics.Counter("streams.opened"),
		cClosed:      cfg.Metrics.Counter("streams.closed"),
		cShed:        cfg.Metrics.Counter("streams.shed"),
		cRateLimited: cfg.Metrics.Counter("streams.rate_limited"),
		gOpen:        cfg.Metrics.Gauge("streams.open"),
	}
	return m
}

// Open admits and creates a stream. Transient refusals (at the open-
// stream bound, over the client's rate) are *OverloadError values;
// permanently-bad requests are *RequestError values; ErrDraining
// reports shutdown.
func (m *StreamManager) Open(client string, req StreamRequest) (StreamDoc, error) {
	if m.draining.Load() {
		return StreamDoc{}, ErrDraining
	}
	if ok, wait := m.limiter.allow(client, time.Now()); !ok {
		m.cRateLimited.Inc()
		return StreamDoc{}, &OverloadError{Cause: "rate limited", RetryAfter: wait}
	}
	sp, err := SpecByName(req.Spec, req.Object, req.Threads)
	if err != nil {
		return StreamDoc{}, &RequestError{Err: err}
	}
	eng, err := stream.ParseEngine(req.Engine)
	if err != nil {
		return StreamDoc{}, &RequestError{Err: err}
	}
	req.Engine = eng.String()
	if req.Object == "" {
		req.Object = "E"
	}
	if req.Window <= 0 || req.Window > m.cfg.Window {
		req.Window = m.cfg.Window
	}
	if req.CheckEvery <= 0 || req.CheckEvery > m.cfg.CheckEvery {
		req.CheckEvery = m.cfg.CheckEvery
	}
	s, err := stream.New(sp, stream.Config{
		Window:     req.Window,
		CheckEvery: req.CheckEvery,
		Engine:     eng,
		Metrics:    m.cfg.Metrics,
	})
	if err != nil {
		return StreamDoc{}, &RequestError{Err: err}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		s.Close()
		return StreamDoc{}, ErrDraining
	}
	if len(m.streams)-m.nClosed >= m.cfg.MaxStreams {
		s.Close()
		m.cShed.Inc()
		return StreamDoc{}, &OverloadError{Cause: "open-stream bound reached", RetryAfter: time.Second}
	}
	m.nextID++
	id := fmt.Sprintf("s%06d", m.nextID)
	ss := &servedStream{
		doc: StreamDoc{
			Schema:    StreamSchema,
			ID:        id,
			Client:    client,
			State:     StreamOpen,
			Request:   req,
			CreatedNS: time.Now().UnixNano(),
			Verdict:   s.Verdict(),
		},
		s: s,
	}
	if m.cfg.IdleTimeout > 0 {
		ss.idle = time.AfterFunc(m.cfg.IdleTimeout, func() { m.reapIdle(id) })
	}
	m.streams[id] = ss
	m.order = append(m.order, id)
	m.cOpened.Inc()
	m.gOpen.Set(int64(len(m.streams) - m.nClosed))
	m.log.Info("stream opened", "id", id, "client", client,
		"spec", req.Spec, "engine", req.Engine, "window", req.Window)
	return ss.doc, nil
}

// Feed parses one batch of events (the line-oriented history
// interchange format) and feeds it to the stream in order. The first
// ill-formed event stops the batch with a *RequestError; prior events
// in the batch stay fed — exactly the semantics of observing a live
// system up to a corrupt record.
func (m *StreamManager) Feed(id, batch string) (StreamDoc, error) {
	h, err := history.ParseFileLimited("batch", batch, history.Limits{
		MaxBytes:  m.cfg.MaxBatchBytes,
		MaxEvents: m.cfg.MaxBatchEvents,
	})
	if err != nil {
		return StreamDoc{}, &RequestError{Err: err}
	}
	m.mu.Lock()
	ss, ok := m.streams[id]
	if !ok {
		m.mu.Unlock()
		return StreamDoc{}, ErrNotFound
	}
	if ss.doc.State != StreamOpen {
		m.mu.Unlock()
		return ss.doc, &RequestError{Err: errors.New("stream is closed")}
	}
	if ss.idle != nil {
		ss.idle.Reset(m.cfg.IdleTimeout)
	}
	var feedErr error
	fed := 0
	for _, ev := range h {
		if err := ss.s.Feed(ev); err != nil {
			feedErr = &RequestError{Err: fmt.Errorf("event %d of batch: %w", fed, err)}
			break
		}
		fed++
	}
	ss.doc.Verdict = ss.s.Verdict()
	doc := ss.doc
	m.notifyLocked(ss)
	m.mu.Unlock()
	return doc, feedErr
}

// Close runs the stream's end-of-stream checks and returns the final
// document. Idempotent per stream.
func (m *StreamManager) Close(id string) (StreamDoc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ss, ok := m.streams[id]
	if !ok {
		return StreamDoc{}, ErrNotFound
	}
	return m.closeLocked(ss, "closed by client"), nil
}

// closeLocked finalizes one stream: Close the checker, mark the doc
// terminal, notify watchers, publish, and evict old closed docs.
func (m *StreamManager) closeLocked(ss *servedStream, why string) StreamDoc {
	if ss.doc.State != StreamOpen {
		return ss.doc
	}
	if ss.idle != nil {
		ss.idle.Stop()
	}
	ss.doc.Verdict = ss.s.Close()
	ss.doc.State = StreamClosed
	ss.doc.ClosedNS = time.Now().UnixNano()
	m.nClosed++
	m.cClosed.Inc()
	m.gOpen.Set(int64(len(m.streams) - m.nClosed))
	m.log.Info("stream closed", "id", ss.doc.ID, "why", why,
		"verdict", ss.doc.Verdict.String(), "events", ss.doc.Verdict.Events)
	m.notifyLocked(ss)
	for _, ch := range ss.watchers {
		close(ch)
	}
	ss.watchers = nil
	if m.cfg.OnClose != nil {
		go m.cfg.OnClose(ss.doc)
	}
	m.evictClosedLocked()
	return ss.doc
}

// evictClosedLocked drops the oldest closed streams past MaxClosed.
func (m *StreamManager) evictClosedLocked() {
	if m.nClosed <= m.cfg.MaxClosed {
		return
	}
	keep := m.order[:0]
	for _, id := range m.order {
		ss := m.streams[id]
		if m.nClosed > m.cfg.MaxClosed && ss.doc.State == StreamClosed {
			delete(m.streams, id)
			m.nClosed--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}

// reapIdle closes a stream that outlived IdleTimeout without events.
func (m *StreamManager) reapIdle(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ss, ok := m.streams[id]; ok {
		m.closeLocked(ss, "idle timeout")
	}
}

// Cancel aborts a stream's in-flight fallback re-checks and closes it;
// the final verdict degrades rather than blocks.
func (m *StreamManager) Cancel(id string) (StreamDoc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ss, ok := m.streams[id]
	if !ok {
		return StreamDoc{}, ErrNotFound
	}
	ss.s.Cancel()
	return m.closeLocked(ss, "canceled by client"), nil
}

// Get returns one stream document.
func (m *StreamManager) Get(id string) (StreamDoc, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ss, ok := m.streams[id]
	if !ok {
		return StreamDoc{}, false
	}
	ss.doc.Verdict = ss.s.Verdict()
	return ss.doc, true
}

// List returns every known stream document, oldest first.
func (m *StreamManager) List() []StreamDoc {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]StreamDoc, 0, len(m.order))
	for _, id := range m.order {
		ss := m.streams[id]
		if ss.doc.State == StreamOpen {
			ss.doc.Verdict = ss.s.Verdict()
		}
		out = append(out, ss.doc)
	}
	return out
}

// Watch returns the current document, a channel of subsequent frames
// (one per ingested batch and one terminal frame; closed after the
// terminal frame), and a stop function the caller must invoke.
func (m *StreamManager) Watch(id string) (StreamDoc, <-chan StreamDoc, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ss, ok := m.streams[id]
	if !ok {
		return StreamDoc{}, nil, nil, ErrNotFound
	}
	if ss.doc.State == StreamOpen {
		ss.doc.Verdict = ss.s.Verdict()
	}
	snap := ss.doc
	ch := make(chan StreamDoc, 16)
	if snap.State != StreamOpen {
		close(ch)
		return snap, ch, func() {}, nil
	}
	ss.watchers = append(ss.watchers, ch)
	stop := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, w := range ss.watchers {
			if w == ch {
				ss.watchers = append(ss.watchers[:i], ss.watchers[i+1:]...)
				return
			}
		}
	}
	return snap, ch, stop, nil
}

// notifyLocked delivers the current document to every watcher; slow
// watchers lose intermediate frames, never the terminal one (the
// channel close after closeLocked is the terminal signal).
func (m *StreamManager) notifyLocked(ss *servedStream) {
	for _, ch := range ss.watchers {
		select {
		case ch <- ss.doc:
		default:
		}
	}
}

// Stopping is closed when Drain begins; SSE watchers use it to end
// their streams with a drain event.
func (m *StreamManager) Stopping() <-chan struct{} { return m.stopCh }

// Drain refuses new opens and closes every open stream, computing final
// verdicts. Unlike jobs, streams are connection-era state: they are not
// journaled, and clients of a restarted daemon re-open and re-feed.
func (m *StreamManager) Drain() {
	if !m.draining.CompareAndSwap(false, true) {
		return
	}
	close(m.stopCh)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopped = true
	for _, id := range m.order {
		m.closeLocked(m.streams[id], "daemon draining")
	}
}
