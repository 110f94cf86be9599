package simworkload

import (
	"fmt"
	"sort"
	"strings"

	"seagull/internal/obs"
	"seagull/internal/stream"
)

// PredictSLO summarizes the serving side of a run. Latencies and shed counts
// are wall-clock measurements — real request round-trips over the loopback
// listener — so they vary run to run and are excluded from the timeline CSV.
type PredictSLO struct {
	Issued   uint64 `json:"issued"`
	OK       uint64 `json:"ok"`
	Degraded uint64 `json:"degraded"` // brownout responses (persistent fallback)
	Shed     uint64 `json:"shed"`     // admission-control rejections (overloaded)
	Failed   uint64 `json:"failed"`   // every other error (insufficient history, transport, ...)

	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// DriftLag is the detection outcome of one injected drift event: how long,
// in simulated time, the sweep loop took to flag an affected server that was
// clean before the event. LagHours is -1 when the run ended undetected
// (event too late, affected servers' backup windows outside the replay, or
// magnitude inside the accuracy bound).
type DriftLag struct {
	Region   string  `json:"region,omitempty"`
	AtHour   float64 `json:"at_hour"`
	LagHours float64 `json:"lag_hours"`
}

// SLOReport is the run's summary artifact: deterministic subsystem counters
// plus the wall-measured serving SLOs.
type SLOReport struct {
	Scenario    string  `json:"scenario"`
	Seed        int64   `json:"seed"`
	SimHours    float64 `json:"sim_hours"`
	WallSeconds float64 `json:"wall_seconds"`
	// Compression is simulated seconds per wall second achieved by the run.
	Compression float64 `json:"compression"`

	Predicts PredictSLO `json:"predicts"`
	DriftLag []DriftLag `json:"drift_lag,omitempty"`
	// MaxQueueDepth is the deepest post-sweep refresh queue observed.
	MaxQueueDepth int `json:"max_queue_depth"`
	// Replicas is the serving topology: 1 is the single-process system, more
	// means that many consistent-hash shards behind the router. The stream
	// stats below are fleet sums.
	Replicas int `json:"replicas,omitempty"`

	Ingest     stream.Stats           `json:"ingest"`
	Sweeper    stream.SweeperStats    `json:"sweeper"`
	Refresh    stream.RefreshStats    `json:"refresh"`
	Durability stream.DurabilityStats `json:"durability"`

	// Stages is the serving-side per-stage latency breakdown (admission
	// wait, pool checkout, train, inference) from the wall-clock tracer.
	// Wall measurements, like the predict percentiles: report-only, never in
	// the timeline CSV.
	Stages []obs.StageStat `json:"stages,omitempty"`
	// RefreshMemoHits counts the run's refresh trains served from a warm
	// instance's training memo. It depends on which idle
	// instance each refresh worker checks out, i.e. on scheduling, so like
	// the stages it is report-only.
	RefreshMemoHits uint64 `json:"refresh_memo_hits"`
}

// String renders the report as the operator-facing summary the CLI prints.
func (r SLOReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (seed %d): %.1f simulated hours in %.1fs wall (%.0fx compression)\n",
		r.Scenario, r.Seed, r.SimHours, r.WallSeconds, r.Compression)
	p := r.Predicts
	fmt.Fprintf(&b, "predicts: %d issued, %d ok, %d degraded, %d shed, %d failed; latency p50 %.1fms p95 %.1fms p99 %.1fms max %.1fms\n",
		p.Issued, p.OK, p.Degraded, p.Shed, p.Failed, p.P50ms, p.P95ms, p.P99ms, p.MaxMS)
	for _, st := range r.Stages {
		hits := ""
		if st.Hits > 0 {
			hits = fmt.Sprintf(" (%d warm)", st.Hits)
		}
		fmt.Fprintf(&b, "  stage %-10s %6d spans%s, avg %.3fms, max %.3fms\n",
			st.Stage+":", st.Count, hits, st.AvgMs, st.MaxMs)
	}
	fmt.Fprintf(&b, "ingest: %d appended, %d dup, %d too_old, %d too_new across %d servers\n",
		r.Ingest.Appended, r.Ingest.Duplicates, r.Ingest.TooOld, r.Ingest.TooNew, r.Ingest.Servers)
	fmt.Fprintf(&b, "drift loop: %d sweeps, %d drifted, %d queued, %d refreshed, %d skipped, %d dropped (max queue depth %d)\n",
		r.Sweeper.Ticks, r.Sweeper.Drifted, r.Refresh.Queued, r.Refresh.Refreshed, r.Refresh.Skipped, r.Refresh.Dropped, r.MaxQueueDepth)
	for _, d := range r.DriftLag {
		if d.LagHours < 0 {
			fmt.Fprintf(&b, "drift@%gh (%s): NOT detected within the run\n", d.AtHour, d.Region)
			continue
		}
		fmt.Fprintf(&b, "drift@%gh (%s): detected after %.2f simulated hours\n", d.AtHour, d.Region, d.LagHours)
	}
	fmt.Fprintf(&b, "durability: %d WAL commits (%d records, %d bytes), %d snapshots, %d commit errors\n",
		r.Durability.Commits, r.Durability.CommitRecords, r.Durability.CommitBytes,
		r.Durability.Snapshots, r.Durability.CommitErrors)
	return b.String()
}

// percentile returns the q-th percentile (0 < q ≤ 1) of ms, which must be
// sorted ascending. Zero-length input yields 0.
func percentile(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	idx := int(q*float64(len(ms))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ms) {
		idx = len(ms) - 1
	}
	return ms[idx]
}

// summarizeLatencies fills the latency fields of a PredictSLO from raw
// millisecond samples (consumed: the slice is sorted in place).
func summarizeLatencies(p *PredictSLO, ms []float64) {
	if len(ms) == 0 {
		return
	}
	sort.Float64s(ms)
	p.P50ms = percentile(ms, 0.50)
	p.P95ms = percentile(ms, 0.95)
	p.P99ms = percentile(ms, 0.99)
	p.MaxMS = ms[len(ms)-1]
}
