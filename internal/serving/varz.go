package serving

import (
	"bufio"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/admission"
	"seagull/internal/obs"
	"seagull/internal/simclock"
	"seagull/internal/stream"
)

// The /varz endpoint (stdlib-only, named after the classic borgmon page)
// exposes the serving process's operational counters as one JSON document:
// warm-pool effectiveness, per-endpoint latency histograms and in-flight
// counts, and — when the stream layer is attached — ingest, drift and
// refresh counters. The same atomics feed the Prometheus rendering on
// /metrics (see metrics.go).

// latencyBoundsMs are the histogram bucket upper bounds in milliseconds; a
// final implicit +Inf bucket catches the rest. Spanning 100µs to 10s covers
// warm-pool predicts (~10µs–1ms) through cold batch trains (seconds). An
// array (not a slice) so the bucket-counter array below is sized from it at
// compile time — editing the bounds can never silently truncate the
// histogram.
var latencyBoundsMs = [...]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// numLatencyBuckets is the bucket-counter width: one per bound plus the
// overflow bucket.
const numLatencyBuckets = len(latencyBoundsMs) + 1

// endpointVars is one endpoint's live counters. All fields are atomics: the
// observation path adds no locks to request handling.
type endpointVars struct {
	inFlight atomic.Int64
	count    atomic.Uint64
	errors   atomic.Uint64
	sumNs    atomic.Int64
	buckets  [numLatencyBuckets]atomic.Uint64 // last = overflow
}

// observe records one finished request.
func (ev *endpointVars) observe(d time.Duration, status int) {
	ev.count.Add(1)
	if status >= 400 {
		ev.errors.Add(1)
	}
	ev.sumNs.Add(int64(d))
	ms := float64(d) / float64(time.Millisecond)
	i := sort.SearchFloat64s(latencyBoundsMs[:], ms)
	ev.buckets[i].Add(1)
}

// EndpointVarz is the wire form of one endpoint's counters.
type EndpointVarz struct {
	Count    uint64 `json:"count"`
	Errors   uint64 `json:"errors"`
	InFlight int64  `json:"in_flight"`
	// LatencyMsSum is the total handling time in milliseconds; divide by
	// Count for the mean.
	LatencyMsSum float64 `json:"latency_ms_sum"`
	// LatencyMsBounds are the histogram bucket upper bounds; LatencyCounts
	// has one extra trailing entry for observations beyond the last bound.
	LatencyMsBounds []float64 `json:"latency_ms_bounds"`
	LatencyCounts   []uint64  `json:"latency_counts"`
}

// Varz is the /varz document.
type Varz struct {
	UptimeSec float64                 `json:"uptime_sec"`
	Pool      PoolStats               `json:"pool"`
	Endpoints map[string]EndpointVarz `json:"endpoints"`
	Ingest    *stream.Stats           `json:"ingest,omitempty"`
	Drift     *stream.DriftStats      `json:"drift,omitempty"`
	Refresh   *stream.RefreshStats    `json:"refresh,omitempty"`
	Sweeper   *stream.SweeperStats    `json:"sweeper,omitempty"`
	// Durability reports WAL commits, incremental snapshots and the boot
	// recovery outcome; Degraded carries the reason when restore was partial
	// (mirrors /readyz).
	Durability *stream.DurabilityStats `json:"durability,omitempty"`
	// Admission reports the adaptive limiter: current limit, in-flight,
	// queue depth, shed/eviction/brownout counters and per-endpoint detail.
	Admission *admission.Stats `json:"admission,omitempty"`
	Degraded  string           `json:"degraded,omitempty"`
}

// varz tracks every instrumented endpoint for one service.
type varz struct {
	mu        sync.Mutex
	clock     simclock.Clock
	started   time.Time
	endpoints map[string]*endpointVars
}

func newVarz(clock simclock.Clock) *varz {
	clock = simclock.Or(clock)
	return &varz{clock: clock, started: clock.Now(), endpoints: map[string]*endpointVars{}}
}

// endpoint returns (creating once) the counters for name. Endpoints are
// registered at mux-build time, so the map is effectively read-only while
// serving.
func (v *varz) endpoint(name string) *endpointVars {
	v.mu.Lock()
	defer v.mu.Unlock()
	ev, ok := v.endpoints[name]
	if !ok {
		ev = &endpointVars{}
		v.endpoints[name] = ev
	}
	return ev
}

// StatusWriter captures the response status for the error counters while
// forwarding the optional ResponseWriter upgrades — Flusher for streaming
// responses and Hijacker for connection takeover — that a plain embedding
// would silently swallow behind type assertions. Unwrap additionally lets
// http.ResponseController reach the underlying writer for everything else.
// The serving endpoints and the sharded router share it.
type StatusWriter struct {
	http.ResponseWriter
	Status int
}

// WriteHeader records the status and forwards it.
func (w *StatusWriter) WriteHeader(status int) {
	w.Status = status
	w.ResponseWriter.WriteHeader(status)
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (w *StatusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush forwards http.Flusher when the underlying writer streams.
func (w *StatusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Hijack forwards http.Hijacker when the underlying connection allows
// takeover, and reports ErrNotSupported otherwise (matching
// http.ResponseController's contract).
func (w *StatusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if h, ok := w.ResponseWriter.(http.Hijacker); ok {
		return h.Hijack()
	}
	return nil, nil, http.ErrNotSupported
}

// instrument wraps a handler with latency/error/in-flight accounting under
// the given endpoint name and — when the service carries a tracer — opens
// the request's trace: the inbound X-Request-Id (or a minted one) labels
// it, rides the response header, and the trace travels the request context
// so every layer below records spans into it.
func (s *Service) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	ev := s.varz.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		ev.inFlight.Add(1)
		defer ev.inFlight.Add(-1)
		sw := &StatusWriter{ResponseWriter: w, Status: http.StatusOK}
		clock := s.varz.clock
		start := clock.Now()
		if tr := s.tracer.Start(name, r.Header.Get("X-Request-Id")); tr != nil {
			w.Header().Set("X-Request-Id", tr.RequestID())
			r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
			defer func() { s.tracer.Finish(tr, sw.Status) }()
		}
		h(sw, r)
		ev.observe(clock.Now().Sub(start), sw.Status)
	}
}

// VarzSnapshot assembles the current /varz document.
func (s *Service) VarzSnapshot() Varz {
	out := Varz{
		UptimeSec: simclock.Since(s.varz.clock, s.varz.started).Seconds(),
		Pool:      s.pool.Stats(),
		Endpoints: map[string]EndpointVarz{},
	}
	s.varz.mu.Lock()
	for name, ev := range s.varz.endpoints {
		e := EndpointVarz{
			Count:           ev.count.Load(),
			Errors:          ev.errors.Load(),
			InFlight:        ev.inFlight.Load(),
			LatencyMsSum:    float64(ev.sumNs.Load()) / float64(time.Millisecond),
			LatencyMsBounds: latencyBoundsMs[:],
			LatencyCounts:   make([]uint64, len(ev.buckets)),
		}
		for i := range ev.buckets {
			e.LatencyCounts[i] = ev.buckets[i].Load()
		}
		out.Endpoints[name] = e
	}
	s.varz.mu.Unlock()
	if s.cfg.Ingestor != nil {
		st := s.cfg.Ingestor.Stats()
		out.Ingest = &st
	}
	if s.cfg.Drift != nil {
		st := s.cfg.Drift.Stats()
		out.Drift = &st
	}
	if s.cfg.Refresher != nil {
		st := s.cfg.Refresher.Stats()
		out.Refresh = &st
	}
	if s.cfg.Sweeper != nil {
		st := s.cfg.Sweeper.Stats()
		out.Sweeper = &st
	}
	if s.cfg.Durability != nil {
		st := s.cfg.Durability.Stats()
		out.Durability = &st
	}
	if s.limiter != nil {
		st := s.limiter.Stats()
		out.Admission = &st
	}
	out.Degraded = s.Degraded()
	return out
}

func (s *Service) handleVarz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.VarzSnapshot())
}
