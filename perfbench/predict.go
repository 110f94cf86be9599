package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"seagull/internal/forecast"
	"seagull/internal/simulate"
	"seagull/internal/timeseries"
)

// predict-routed: POST /v2/predict through the router to two replicas, each
// request carrying its own inline 7-day history; the persistent forecast is
// deployed, so the model costs microseconds and the router hop, JSON wire
// and admission do nearly all the work.
const (
	predictServers = 300
	// predictRate is the open-loop arrival rate, about a quarter of the
	// closed-loop capacity with two connections on a 2-vCPU host: at half,
	// host CPU steal pushes the open loop into queueing and its median
	// swings from run to run.
	predictRate = 250.0
	// predictBodies bounds the distinct pre-encoded requests; the closed
	// loop cycles through them.
	predictBodies = 4096
	predictRounds = 24 // alternating open- and closed-loop rounds
)

// predictInput is one pre-encoded request and the digest of the forecast
// forecast.PredictDay computes in-process on the same history.
type predictInput struct {
	serverID string
	body     []byte
	want     uint64
	start    time.Time
}

// predictReply is the part of a v2 predict response the checks read.
type predictReply struct {
	ServerID string `json:"server_id"`
	Model    string `json:"model"`
	Forecast struct {
		Start       time.Time `json:"start"`
		IntervalMin int       `json:"interval_min"`
		Values      []float64 `json:"values"`
	} `json:"forecast"`
}

func runPredictRouted(b *bench, cfg passCfg) (*passOut, error) {
	out := newPassOut()
	openDur := time.Duration(0.5 * cfg.seconds * float64(time.Second) / predictRounds)
	closedDur := time.Duration(0.5 * cfg.seconds * float64(time.Second) / predictRounds)

	var w *world
	var inputs []predictInput
	var offsets [][]time.Duration
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		t := time.Now()
		dir, err := b.scratch("predict")
		if err != nil {
			return nil, err
		}
		var rec *recorder
		if cfg.traced {
			rec = newRecorder()
		}
		rng := rand.New(rand.NewSource(b.seed))
		offsets = offsets[:0]
		n := 0
		for r := 0; r < predictRounds; r++ {
			offsets = append(offsets, poissonOffsets(rng, predictRate, openDur))
			n += len(offsets[r])
		}
		inputs, err = predictInputs(rng, b.seed, max(n, predictBodies))
		if err != nil {
			return nil, err
		}
		w, err = newWorld(b, dir, worldCfg{model: forecast.NamePersistentPrevDay, rec: rec})
		if err != nil {
			return nil, err
		}
		// Prime both connections and both replicas' warm pools.
		for k := 0; k < 4*b.nproc; k++ {
			if err := verifyPredict(w, &inputs[k]); err != nil {
				w.close()
				return nil, fmt.Errorf("priming predict: %w", err)
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.close()

	rss := startRSS()
	rt := readRuntime()
	var mismatches atomic.Int64
	var next atomic.Int64 // request index, shared by both loops
	op := func(tag string) opFunc {
		return func(_, _ int) (time.Time, error) {
			i := int(next.Add(1) - 1)
			in := &inputs[i%len(inputs)]
			var reqID string
			if w.rec != nil {
				reqID = tag + strconv.Itoa(i)
			}
			reply, done, err := w.post("/v2/predict", in.body, reqID)
			if err != nil {
				return done, err
			}
			if err := checkPredictReply(reply, in); err != nil {
				mismatches.Add(1)
				return done, err
			}
			return done, nil
		}
	}
	// Rounds alternate the open and closed loops, so a stretch of host
	// noise lands in a few rounds' figures and the quiet-half median
	// leaves them out.
	open := &phase{name: "predict-open"}
	closed := &phase{name: "predict-closed"}
	var roundP50, roundCap, roundOK, roundCPU, openSteal, closedSteal []float64
	for r := 0; r < predictRounds; r++ {
		m := markSteal()
		o := openLoop("predict-open", b.nproc, offsets[r], 2*openDur+5*time.Second, op("o-"))
		openSteal = append(openSteal, m.since())
		m = markSteal()
		cpu := processCPU()
		c := closedLoop("predict-closed", b.nproc, closedDur, op("c-"))
		roundOK = append(roundOK, float64(c.ok))
		roundCPU = append(roundCPU, (processCPU() - cpu).Seconds())
		closedSteal = append(closedSteal, m.since())
		p50, _ := percentiles(append([]float64(nil), o.lat...), 0.5)
		roundP50 = append(roundP50, p50)
		roundCap = append(roundCap, float64(c.ok)/c.elapsed.Seconds())
		open.merge(o)
		open.elapsed += o.elapsed
		closed.merge(c)
		closed.elapsed += c.elapsed
	}
	allocs, gc := rt.since(open.sent + closed.sent)
	out.e2e["peak_rss_mb"] = rss.finish()

	st := w.state()
	b.check(mismatches.Load() == 0, "predict-routed: %d responses differ from forecast.PredictDay", mismatches.Load())
	b.check(st.routerRetries() == 0, "predict-routed: router retried %d forwards", st.routerRetries())
	for _, p := range []*phase{open, closed} {
		fmt.Println(p)
		b.check(p.failures() == 0, "%s: %d failed operations (first: %v)", p.name, p.failures(), p.firstErr)
	}
	lateP99 := checkGenerator(b, open, int(predictRate)) // a second of arrivals

	_, p99 := percentiles(open.lat, 0.99)
	out.e2e["setup_s"] = median(setups)
	out.e2e["p50_ms"] = quietMedian(roundP50, openSteal)
	out.e2e["rate_per_cpu_s"] = quietRatio(roundOK, roundCPU, closedSteal)
	capacity := quietMedian(roundCap, closedSteal)
	out.attempted = open.attempted() + closed.attempted()
	out.failed = open.failures() + closed.failures()

	out.name("setup_s", out.e2e["setup_s"], "s", len(setups))
	out.name("peak_rss_mb", out.e2e["peak_rss_mb"], "MiB", 1)
	out.name("failed_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio", out.attempted)
	out.name("predict_p50_ms", out.e2e["p50_ms"], "ms", len(open.lat))
	out.name("predict_p99_ms", p99, "ms", len(open.lat))
	out.name("predict_capacity_rps", capacity, "req/s", closed.ok)
	out.name("predict_per_cpu_s", out.e2e["rate_per_cpu_s"], "req/cpu-s", closed.ok)
	out.name("predict_p50_ms_all_rounds", median(roundP50), "ms", len(open.lat))
	out.name("predict_capacity_rps_all_rounds", median(roundCap), "req/s", closed.ok)
	out.name("predict_per_cpu_s_all_rounds", sum(roundOK)/sum(roundCPU), "req/cpu-s", closed.ok)

	l := out.layer
	l["e2e.p99_ms"] = p99
	l["gen.late_p99_ms"] = lateP99
	l["gen.backlog_max"] = float64(open.backlogMax)
	l["go.allocs_per_op"] = allocs
	l["go.gc_cpu_fraction"] = gc
	bodyBytes := 0
	for i := range inputs {
		bodyBytes += len(inputs[i].body)
	}
	l["serving.req_bytes"] = float64(bodyBytes) / float64(len(inputs))
	if cfg.traced {
		spans := w.rec.all()
		fillServingLayers(out, st, spans, "POST /v2/predict")
		fillStreamLayers(out, st)
		// Client and loopback cost: the mean client-observed service time
		// not covered by the router's handler span (router self time plus
		// the replica's handler).
		rn, rMs := spanStats(spans, "router POST /v2/predict")
		client := (sum(open.svc) + sum(closed.svc)) / float64(len(open.svc)+len(closed.svc))
		l["acct.client_loopback_ms"] = client - ratio(rMs, float64(rn))
		b.check(l["acct.client_loopback_ms"] > -0.01, "predict-routed: router span %.3fms exceeds the client's mean latency %.3fms", ratio(rMs, float64(rn)), client)
		out.spans = spans
	}
	return out, nil
}

// predictInputs builds n distinct requests: each a 7-day window of one
// long-lived server's generated load at a seeded offset, rounded like the
// lake's extracts, with the expected forecast digest.
func predictInputs(rng *rand.Rand, seed int64, n int) ([]predictInput, error) {
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: region, Servers: predictServers, Weeks: 2, Interval: slot, Seed: seed,
	})
	var servers []*simulate.Server
	for _, srv := range fleet.Servers {
		if !srv.ShortLived {
			servers = append(servers, srv)
		}
	}
	start, _ := fleet.Span()
	model := forecast.NewPersistent(forecast.PrevDay)
	vals := make([]float64, weekPts)
	out := make([]predictInput, n)
	for i := range out {
		srv := servers[rng.Intn(len(servers))]
		load := srv.Load()
		off := rng.Intn(load.Len() - weekPts)
		for k := range vals {
			v := load.Values[off+k]
			if math.IsNaN(v) {
				return nil, fmt.Errorf("server %s has a gap at %d", srv.ID, off+k)
			}
			vals[k] = math.Round(v*1000) / 1000
		}
		hStart := start.Add(time.Duration(off) * slot)
		pred, err := forecast.PredictDay(model, timeseries.New(hStart, slot, vals))
		if err != nil {
			return nil, err
		}
		out[i] = predictInput{
			serverID: srv.ID,
			body:     encodePredict(srv.ID, hStart, vals),
			want:     digest(pred.Values),
			start:    pred.Start,
		}
	}
	return out, nil
}

// encodePredict writes a v2 predict request by hand, which keeps set-up
// short; the bytes are plain JSON and the result is sized exactly.
func encodePredict(serverID string, start time.Time, vals []float64) []byte {
	buf := make([]byte, 0, 16*len(vals)+256)
	buf = append(buf, `{"scenario":"`+scenario+`","region":"`+region+`","server_id":`...)
	buf = strconv.AppendQuote(buf, serverID)
	buf = append(buf, `,"history":{"start":"`...)
	buf = start.UTC().AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, `","interval_min":`...)
	buf = strconv.AppendInt(buf, int64(slot/time.Minute), 10)
	buf = append(buf, `,"values":[`...)
	for k, v := range vals {
		if k > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, v, 'f', -1, 64)
	}
	buf = append(buf, `]},"horizon":`...)
	buf = strconv.AppendInt(buf, int64(ppd), 10)
	buf = append(buf, `,"window_points":12}`...)
	return append([]byte(nil), buf...)
}

// digest hashes a series' exact bit patterns.
func digest(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkPredictReply verifies a response bit for bit against the in-process
// forecast.
func checkPredictReply(reply []byte, in *predictInput) error {
	var r predictReply
	if err := json.Unmarshal(reply, &r); err != nil {
		return fmt.Errorf("decode predict reply: %w", err)
	}
	switch {
	case r.ServerID != in.serverID:
		return fmt.Errorf("reply for %q, want %q", r.ServerID, in.serverID)
	case r.Model != forecast.NamePersistentPrevDay:
		return fmt.Errorf("served by %q", r.Model)
	case !r.Forecast.Start.Equal(in.start) || r.Forecast.IntervalMin != int(slot/time.Minute):
		return fmt.Errorf("forecast grid %s/%dm, want %s/%dm", r.Forecast.Start, r.Forecast.IntervalMin, in.start, int(slot/time.Minute))
	case len(r.Forecast.Values) != ppd || digest(r.Forecast.Values) != in.want:
		return fmt.Errorf("forecast for %s differs from forecast.PredictDay", in.serverID)
	}
	return nil
}

func verifyPredict(w *world, in *predictInput) error {
	reply, _, err := w.post("/v2/predict", in.body, "")
	if err != nil {
		return err
	}
	return checkPredictReply(reply, in)
}
