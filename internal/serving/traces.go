package serving

import (
	"net/http"
	"strconv"

	"seagull/internal/obs"
)

// /debug/traces exposes the trace ring as one JSON document: the most recent
// completed traces (newest first, ?n= caps the count), the slowest-N board,
// the per-stage latency aggregates, and the overrun counter. When the
// service carries no tracer the document says so instead of 404ing, so
// operators can tell "tracing off" from "wrong port".

// defaultRecentTraces bounds the recent list when ?n= is absent.
const defaultRecentTraces = 32

// TracesDoc is the /debug/traces document.
type TracesDoc struct {
	Enabled  bool            `json:"enabled"`
	Recent   []obs.TraceView `json:"recent,omitempty"`
	Slowest  []obs.TraceView `json:"slowest,omitempty"`
	Stages   []obs.StageStat `json:"stages,omitempty"`
	Overruns uint64          `json:"overruns,omitempty"`
}

func (s *Service) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		WriteJSON(w, http.StatusOK, TracesDoc{Enabled: false})
		return
	}
	n := defaultRecentTraces
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeV2Error(w, svcErr(CodeBadRequest, http.StatusBadRequest, "bad n=%q: want a non-negative integer", q))
			return
		}
		n = v
	}
	WriteJSON(w, http.StatusOK, TracesDoc{
		Enabled:  true,
		Recent:   s.tracer.Recent(n),
		Slowest:  s.tracer.Slowest(),
		Stages:   s.tracer.StageStats(),
		Overruns: s.tracer.Overruns(),
	})
}
