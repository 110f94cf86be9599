package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// e2eSlots are the end-to-end metrics every workload reports with --trace
// 0. Each workload fills them from its own operation; README.md maps every
// slot to the figure it carries per workload.
var e2eSlots = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"p50_ms", "ms"},
	{"rate_per_cpu_s", "1/cpu-s"},
}

// perLayer are the metrics every workload reports with --trace 1; a layer
// the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"e2e.p99_ms", "ms"},
	{"router.self_ms", "ms"},
	{"router.requests", "count"},
	{"router.errors", "count"},
	{"router.retries", "count"},
	{"shard.skew", "ratio"},
	{"serving.predict_handler_ms", "ms"},
	{"serving.ingest_handler_ms", "ms"},
	{"serving.wire_ms", "ms"},
	{"serving.req_bytes", "bytes"},
	{"admission.wait_ms", "ms"},
	{"admission.sheds", "count"},
	{"admission.brownouts", "count"},
	{"pool.hit_ratio", "ratio"},
	{"forecast.train_ms", "ms"},
	{"forecast.infer_ms", "ms"},
	{"forecast.memo_hit_ratio", "ratio"},
	{"stream.ingest_ms", "ms"},
	{"stream.points_per_req", "points"},
	{"stream.appended", "count"},
	{"stream.duplicates", "count"},
	{"stream.rejected", "count"},
	{"stream.snapshot_ms", "ms"},
	{"drift.sweep_ms", "ms"},
	{"drift.drifted", "count"},
	{"refresh.job_ms", "ms"},
	{"refresh.queue_wait_ms", "ms"},
	{"refresh.refreshed", "count"},
	{"refresh.coalesced", "count"},
	{"refresh.dropped", "count"},
	{"wal.commits", "count"},
	{"wal.records_per_commit", "records"},
	{"wal.bytes_per_point", "bytes"},
	{"wal.snapshots", "count"},
	{"cosmos.upsert_ms", "ms"},
	{"pipeline.ingestion_s", "s"},
	{"pipeline.validation_s", "s"},
	{"pipeline.features_s", "s"},
	{"pipeline.train_infer_s", "s"},
	{"pipeline.accuracy_s", "s"},
	{"pipeline.predicted_ratio", "ratio"},
	{"pipeline.allocs_per_run", "allocs"},
	{"extract.week_s", "s"},
	{"lake.bytes_read_per_run", "bytes"},
	{"scheduler.week_s", "s"},
	{"sim.warmup_s", "s"},
	{"sim.allocs_per_sim_hour", "allocs"},
	{"sim.refresh_trains", "count"},
	{"sim.refresh_memo_hits", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.backlog_max", "count"},
	{"go.allocs_per_op", "allocs"},
	{"go.gc_cpu_fraction", "ratio"},
	{"trace.overhead_p50_ms", "ms"},
	{"acct.client_loopback_ms", "ms"},
	{"acct.weekly_stage_sum_ratio", "ratio"},
	{"gmp1.p50_ms", "ms"},
	{"gmp1.router.self_ms", "ms"},
	{"gmp1.serving.ingest_handler_ms", "ms"},
	{"gmp1.stream.ingest_ms", "ms"},
	{"gmp1.drift.sweep_ms", "ms"},
	{"gmp1.refresh.job_ms", "ms"},
	{"gmp1.forecast.train_ms", "ms"},
	{"gmp1.pipeline.ingestion_s", "s"},
	{"gmp1.pipeline.validation_s", "s"},
	{"gmp1.pipeline.train_infer_s", "s"},
	{"gmp1.pipeline.accuracy_s", "s"},
	{"gmp1.extract.week_s", "s"},
	{"gmp1.scheduler.week_s", "s"},
}

// gmp1Layers are the per-layer self times repeated at GOMAXPROCS=1; each is
// reported as "gmp1.<name>", next to gmp1.p50_ms, the pass's median.
var gmp1Layers = []string{
	"router.self_ms", "serving.ingest_handler_ms", "stream.ingest_ms",
	"drift.sweep_ms", "refresh.job_ms", "forecast.train_ms",
	"pipeline.ingestion_s", "pipeline.validation_s", "pipeline.train_infer_s", "pipeline.accuracy_s",
	"extract.week_s", "scheduler.week_s",
}

// quantile returns the q-quantile of sorted (linear interpolation between
// closest ranks); 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// stealMark is a reading of the host's CPU tick counters.
type stealMark struct{ steal, total float64 }

func markSteal() stealMark {
	s, t := hostSteal()
	return stealMark{s, t}
}

// since returns the share of all CPU time the hypervisor stole from this
// VM after m.
func (m stealMark) since() float64 {
	s, t := hostSteal()
	return ratio(s-m.steal, t-m.total)
}

// quietMedian returns the median of vals over the samples whose host CPU
// steal is at most the median steal: the quieter half of the run. Steal
// only ever adds time, and on a shared VM it moves every figure, so the
// quieter half is the better estimate of the program's own speed.
func quietMedian(vals, steals []float64) float64 {
	cut := median(steals)
	var quiet []float64
	for i, v := range vals {
		if steals[i] <= cut {
			quiet = append(quiet, v)
		}
	}
	return median(quiet)
}

// processCPU returns the CPU time this process has run, user plus system.
// The kernel charges time the hypervisor stole from a vCPU as steal, not to
// the task running on it, so work per CPU-second holds still while the
// host's steal moves; 0 when it cannot be read.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quietRatio returns sum(num) ÷ sum(den) over the samples whose host CPU
// steal is at most the median steal: quietMedian for a rate whose samples
// are only meaningful pooled, such as operations over CPU seconds.
func quietRatio(num, den, steals []float64) float64 {
	cut := median(steals)
	var n, d float64
	for i := range num {
		if steals[i] <= cut {
			n += num[i]
			d += den[i]
		}
	}
	return ratio(n, d)
}

// hostSteal reads the machine-wide stolen and total CPU ticks from
// /proc/stat; zeros when it cannot.
func hostSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// median sorts a copy of vals and returns its median.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssSampler tracks the process's peak resident set while a timed phase
// runs, so set-up garbage released before timing does not count.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Int64 // bytes
}

func startRSS() *rssSampler {
	// Return set-up garbage to the OS first, so the timed phase starts from
	// its own working set.
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	if rss := pages * int64(os.Getpagesize()); rss > s.peak.Load() {
		s.peak.Store(rss)
	}
}

// finish stops sampling and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	return float64(s.peak.Load()) / (1 << 20)
}

// runtimeWindow measures allocations and GC CPU share over a timed phase.
type runtimeWindow struct {
	mallocs uint64
	gcCPU   float64
	allCPU  float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	w := runtimeWindow{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		w.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		w.allCPU = s[1].Value.Float64()
	}
	return w
}

// since returns allocations per op and the GC CPU fraction accumulated
// after w.
func (w runtimeWindow) since(ops int) (allocsPerOp, gcFraction float64) {
	now := readRuntime()
	allocsPerOp = ratio(float64(now.mallocs-w.mallocs), float64(ops))
	gcFraction = ratio(now.gcCPU-w.gcCPU, now.allCPU-w.allCPU)
	return allocsPerOp, gcFraction
}

// span is one traced interval. IDs are unique within a run; Parent 0 marks
// a root. Times are nanoseconds since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	ReqID  string `json:"req_id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps a traced pass's spans in memory. A nil recorder records
// nothing, so untraced passes pass nil through the same code.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// record stores a finished span and returns its ID.
func (r *recorder) record(name, reqID string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	id := r.ids.Add(1)
	s := span{ID: id, Parent: parent, Name: name, ReqID: reqID,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// newID reserves a span ID, so children can name a parent recorded after
// them; 0 on a nil recorder.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// recordID stores a root span under an ID from newID.
func (r *recorder) recordID(id int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent int64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.record(name, "", parent, start, end)
	return end.Sub(start), err
}

// wrap records one span per request handled by h, named
// "<layer> <method> <path>".
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		r.record(layer+" "+req.Method+" "+req.URL.Path, req.Header.Get("X-Request-Id"), 0, start, time.Now())
	})
}

// all returns a copy of the recorded spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanStats sums the spans of one name: count and total milliseconds.
func spanStats(spans []span, name string) (n int, totalMs float64) {
	for _, s := range spans {
		if s.Name == name {
			n++
			totalMs += ms(s.dur())
		}
	}
	return n, totalMs
}

// writeSpans stores the traced pass's spans under the build directory, one
// JSON object per line.
func writeSpans(b *bench, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans %d written to %s\n", len(spans), path)
	return nil
}
