package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/extract"
	"seagull/internal/forecast"
	"seagull/internal/lake"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/serving"
	"seagull/internal/shard"
	"seagull/internal/simulate"
	"seagull/internal/stream"
	"seagull/internal/timeseries"
)

// ingest-refresh: live telemetry through the router into both replicas with
// the WAL on, drift sweeps riding every k-th batch and each replica's
// refresher retraining nimbus-ssa predictions in the background, while
// live-history predicts read the rings being written.
//
// Two streams feed the fleet. The live stream carries the main fleet's live
// week as an open loop at a fixed rate; its sweeps judge that week's stored
// predictions. The capacity stream carries a second server population as
// fast as nproc connections allow; it has no stored predictions, so the
// closed loop measures ingest alone while the live week keeps its place.
//
// Both populations stream an exact number of servers and every batch has
// the same shape, so a seed changes the values but not the amount of work.
const (
	ingestServers = 240 // generated; the weekly pipeline runs over all of them
	liveServers   = 125 // the first ones alive over the whole span (about 58%) stream live
	// ingestLiveWeek is the week whose stored predictions the sweeps judge;
	// the weeks before it are the pipeline's history, and the live stream
	// runs from the start of the live week into the week after.
	ingestLiveWeek = 2
	ingestGroup    = 25 // servers per batch
	ingestSlots    = 12 // slots per batch
	// ingestBatchRate is the open-loop batch rate: 300-point batches at
	// 120/s stream 36k points/s, a day of the live stream every second.
	// The live stream runs for 60% of the run, so at --seconds 20 it
	// covers 12 days. Much further and drifted servers whose shifted load
	// clamps at 100 have a constant week, which nimbus-ssa refuses to
	// train on (422 untrainable) for their live-history predicts.
	ingestBatchRate = 120.0
	ingestSweepK    = 80  // every k-th live batch carries a sweep clause
	ingestPredRate  = 8.0 // live_history predicts per second
	driftServers    = liveServers / 4
	driftShift      = 35.0 // level shift, in load percent, toward the middle of 0–100
	capFleetServers = 480
	capServers      = 250
	capWeeks        = 16 // about 1.3 times what the closed loop ingests at --seconds 20 on a 2-vCPU host
	ingestRounds    = 8
)

// ingestData is the generated telemetry of one server population: per
// server, every slot from start, drift already applied — exactly what the
// rings should hold.
type ingestData struct {
	start   time.Time
	ids     []string
	vals    [][]float64
	prefeed int // leading slots fed in-process before timing
}

// ingestOp is one pre-encoded operation: a telemetry batch for servers
// [lo, hi) of its population up to slot `to`, or a live-history predict.
type ingestOp struct {
	body   []byte
	points int
	ingest bool
	server string // live-history predict target
	lo, hi int
	to     int
}

type ingestRound struct {
	ops     []ingestOp
	offsets []time.Duration
}

func runIngestRefresh(b *bench, cfg passCfg) (*passOut, error) {
	out := newPassOut()
	openDur := time.Duration(0.6 * cfg.seconds * float64(time.Second))
	closedDur := time.Duration(0.4 * cfg.seconds * float64(time.Second))

	var w *world
	var live, capData *ingestData
	var rounds []ingestRound
	var capOps []ingestOp
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		t := time.Now()
		var err error
		w, live, capData, err = setupIngest(b, cfg)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))
		rounds = liveSchedule(rng, live, openDur)
		capOps = batches(capData, 0)
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.close()

	lags := newLagTracker(w.db)
	pollCtx, stopPoll := context.WithCancel(context.Background())
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		lags.poll(pollCtx)
	}()

	rss := startRSS()
	rt := readRuntime()
	var sentPoints, acked, rejected atomic.Int64
	do := func(op *ingestOp, reqID string) (accepted int, done time.Time, err error) {
		sent := time.Now()
		if !op.ingest {
			reply, done, err := w.post("/v2/predict", op.body, reqID)
			if err == nil {
				err = checkLivePredict(reply, op.server)
			}
			return 0, done, err
		}
		reply, done, err := w.post("/v2/ingest", op.body, reqID)
		if err != nil {
			return 0, done, err
		}
		var resp serving.IngestResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			return 0, done, fmt.Errorf("decode ingest reply: %w", err)
		}
		sentPoints.Add(int64(op.points))
		acked.Add(int64(resp.Accepted + resp.Duplicates))
		rejected.Add(int64(resp.TooOld + resp.TooNew + resp.BadValues + resp.Skipped))
		if resp.Sweep != nil {
			lags.listed(resp.Sweep.Servers, sent)
		}
		return resp.Accepted, done, nil
	}

	open := &phase{name: "ingest-open"}
	closed := &phase{name: "ingest-closed"}
	var ingLat, predLat, roundP50, roundCap, roundAcc, roundCPU, openSteal, closedSteal []float64
	var capNext atomic.Int64
	for r, rd := range rounds {
		m := markSteal()
		o := openLoop("ingest-open", b.nproc, rd.offsets, openDur*2/ingestRounds+5*time.Second, func(_, i int) (time.Time, error) {
			var reqID string
			if w.rec != nil {
				reqID = "o" + strconv.Itoa(r) + "-" + strconv.Itoa(i)
			}
			_, done, err := do(&rd.ops[i], reqID)
			return done, err
		})
		openSteal = append(openSteal, m.since())
		var lat []float64
		for k, i := range o.idx {
			if rd.ops[i].ingest {
				lat = append(lat, o.lat[k])
			} else {
				predLat = append(predLat, o.lat[k])
			}
		}
		ingLat = append(ingLat, lat...)
		p50, _ := percentiles(lat, 0.5)
		roundP50 = append(roundP50, p50)
		open.merge(o)
		open.elapsed += o.elapsed

		// The closed loop measures ingest alone: the refreshes the open
		// round's sweeps queued finish first, so their retrains do not
		// share its CPU.
		waitRefreshed(w, lags, time.Second)
		var accepted atomic.Int64
		m = markSteal()
		cpu := processCPU()
		c := closedLoop("ingest-closed", b.nproc, closedDur/ingestRounds, func(_, _ int) (time.Time, error) {
			k := int(capNext.Add(1) - 1)
			if k >= len(capOps) {
				return time.Now(), errExhausted
			}
			n, done, err := do(&capOps[k], "")
			accepted.Add(int64(n))
			return done, err
		})
		// A round cut short by the end of the capacity stream would time a
		// ragged tail; it counts only if it ran its full share.
		if c.elapsed >= closedDur/ingestRounds {
			roundAcc = append(roundAcc, float64(accepted.Load()))
			roundCPU = append(roundCPU, (processCPU() - cpu).Seconds())
			roundCap = append(roundCap, float64(accepted.Load())/c.elapsed.Seconds())
			closedSteal = append(closedSteal, m.since())
		}
		closed.merge(c)
		closed.elapsed += c.elapsed
	}
	// Let the refreshers finish what the last sweeps queued, so every
	// started lag completes and the refreshed documents are final.
	waitRefreshed(w, lags, 10*time.Second)
	stopPoll()
	<-pollDone
	allocs, gc := rt.since(open.sent + closed.sent)
	out.e2e["peak_rss_mb"] = rss.finish()

	// Output checks: every point acknowledged, refreshed documents equal to
	// fresh retrains, rings equal to the generated series up to what was
	// sent.
	b.check(lags.open() == 0, "ingest-refresh: %d drift listings never saw their refresh", lags.open())
	b.check(acked.Load() == sentPoints.Load(), "ingest-refresh: accepted+duplicates %d != points sent %d", acked.Load(), sentPoints.Load())
	b.check(rejected.Load() == 0, "ingest-refresh: %d points rejected", rejected.Load())
	refreshedDocs := verifyRefreshed(b, w)
	var liveSent []ingestOp
	for _, rd := range rounds {
		liveSent = append(liveSent, rd.ops...)
	}
	verifyViews(b, w, live, liveSent, rand.New(rand.NewSource(b.seed+17)))
	verifyViews(b, w, capData, capOps[:min(int(capNext.Load()), len(capOps))], rand.New(rand.NewSource(b.seed+19)))
	for _, p := range []*phase{open, closed} {
		fmt.Println(p)
		b.check(p.failures() == 0, "%s: %d failed operations (first: %v)", p.name, p.failures(), p.firstErr)
	}
	if capNext.Load() >= int64(len(capOps)) {
		fmt.Println("capacity stream exhausted; the closed round it cut short does not count")
	}
	b.check(len(roundCap) > 0, "ingest-refresh: no closed-loop round ran its full share")
	lateP99 := checkGenerator(b, open, int(ingestBatchRate))

	_, ip99 := percentiles(ingLat, 0.99)
	ip50 := quietMedian(roundP50, openSteal)
	pp50, pp90 := percentiles(predLat, 0.90)
	lp50, lp90 := percentiles(lags.lags, 0.90)
	capacity := quietMedian(roundCap, closedSteal)
	out.e2e["setup_s"] = median(setups)
	out.e2e["p50_ms"] = ip50
	out.e2e["rate_per_cpu_s"] = quietRatio(roundAcc, roundCPU, closedSteal)
	out.attempted = open.attempted() + closed.attempted()
	out.failed = open.failures() + closed.failures()

	out.name("setup_s", out.e2e["setup_s"], "s", len(setups))
	out.name("peak_rss_mb", out.e2e["peak_rss_mb"], "MiB", 1)
	out.name("failed_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio", out.attempted)
	out.name("ingest_p50_ms", ip50, "ms", len(ingLat))
	out.name("ingest_p99_ms", ip99, "ms", len(ingLat))
	out.name("ingest_capacity_pps", capacity, "points/s", closed.ok)
	out.name("ingest_points_per_cpu_s", out.e2e["rate_per_cpu_s"], "points/cpu-s", closed.ok)
	out.name("ingest_p50_ms_all_rounds", median(roundP50), "ms", len(ingLat))
	out.name("ingest_capacity_pps_all_rounds", median(roundCap), "points/s", closed.ok)
	out.name("ingest_points_per_cpu_s_all_rounds", sum(roundAcc)/sum(roundCPU), "points/cpu-s", closed.ok)
	out.name("predict_p50_ms", pp50, "ms", len(predLat))
	out.name("predict_p90_ms", pp90, "ms", len(predLat))
	out.name("refresh_lag_p50_ms", lp50, "ms", len(lags.lags))
	out.name("refresh_lag_p90_ms", lp90, "ms", len(lags.lags))
	out.name("refreshed_docs", float64(refreshedDocs), "docs", refreshedDocs)

	l := out.layer
	l["e2e.p99_ms"] = ip99
	l["gen.late_p99_ms"] = lateP99
	l["gen.backlog_max"] = float64(open.backlogMax)
	l["go.allocs_per_op"] = allocs
	l["go.gc_cpu_fraction"] = gc
	if cfg.traced {
		st := w.state()
		spans := w.rec.all()
		fillServingLayers(out, st, spans, "POST /v2/ingest")
		fillStreamLayers(out, st)
		replicaIngests := uint64(0)
		for _, v := range st.varz {
			replicaIngests += v.Endpoints["POST /v2/ingest"].Count
		}
		l["stream.points_per_req"] = ratio(float64(sentPoints.Load()), float64(replicaIngests))
		l["serving.req_bytes"] = meanBytes(liveSent, capOps[:min(int(capNext.Load()), len(capOps))])
		l["refresh.queue_wait_ms"] = ratio(sum(lags.lags), float64(len(lags.lags))) - l["refresh.job_ms"]
		l["drift.sweep_ms"] = probeSweeps(w)
		out.spans = spans
	}
	return out, nil
}

// setupIngest generates both populations, extracts the main fleet, runs the
// weekly pipeline with nimbus-ssa for the live week, mounts the serving
// fleet and pre-feeds each replica's rings with the week before the live
// week.
func setupIngest(b *bench, cfg passCfg) (*world, *ingestData, *ingestData, error) {
	dir, err := b.scratch("ingest")
	if err != nil {
		return nil, nil, nil, err
	}
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: region, Servers: ingestServers, Weeks: ingestLiveWeek + 2, Interval: slot, Seed: b.seed,
	})
	fleetStart, _ := fleet.Span()
	capFleet := simulate.GenerateFleet(simulate.Config{
		Region: region + "-cap", Servers: capFleetServers, Weeks: capWeeks, Interval: slot, Seed: b.seed + 1,
		Start: fleetStart.Add(time.Duration(ingestLiveWeek-1) * 7 * 24 * time.Hour),
	})
	var live *ingestData
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	capData, err := capacityData(capFleet)
	if err != nil {
		return nil, nil, nil, err
	}
	wcfg := worldCfg{
		model: forecast.NameSSA,
		epoch: fleetStart,
		slots: 3 * weekPts,
		rec:   rec,
		prepare: func(store *lake.Store, db *cosmos.DB, reg *registry.Registry) error {
			if _, err := extract.ExtractAll(store, fleet); err != nil {
				return err
			}
			pipe := pipeline.New(store, db, reg, nil)
			if _, err := pipe.RunWeek(context.Background(), pipeline.Config{
				Region: region, Week: ingestLiveWeek, ModelName: forecast.NameSSA,
				Interval: slot, Workers: b.nproc, Seed: b.seed,
			}); err != nil {
				return err
			}
			live, err = liveData(store, fleet, b.seed)
			return err
		},
		prefeed: func(name string, ing *stream.Ingestor, smap *shard.Map) error {
			for k, id := range live.ids {
				if smap.Owner(id) != name {
					continue
				}
				if _, err := ing.AppendSeries(id, live.start, live.vals[k][:live.prefeed]); err != nil {
					return err
				}
			}
			return nil
		},
	}
	w, err := newWorld(b, dir, wcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return w, live, capData, nil
}

// liveData reads the weeks from the one before the live week to the one
// after it back from the lake (the values the pipeline saw), keeps the
// first liveServers servers alive over that span, and applies a level-shift
// drift to a seeded quarter of them from a seeded slot of the live week's
// first day.
func liveData(store *lake.Store, fleet *simulate.Fleet, seed int64) (*ingestData, error) {
	start, _ := fleet.Span()
	d := &ingestData{start: start.Add(time.Duration(ingestLiveWeek-1) * 7 * 24 * time.Hour), prefeed: weekPts}
	byID := map[string][]float64{}
	for wk := ingestLiveWeek - 1; wk <= ingestLiveWeek+1; wk++ {
		loads, err := extract.Ingest(store, region, wk, slot)
		if err != nil {
			return nil, err
		}
		for _, sl := range loads {
			v := byID[sl.ServerID]
			if v == nil {
				v = make([]float64, 3*weekPts)
				for k := range v {
					v[k] = math.NaN()
				}
				byID[sl.ServerID] = v
			}
			off := int(sl.Load.Start.Sub(d.start) / slot)
			for k, x := range sl.Load.Values {
				if off+k >= 0 && off+k < len(v) {
					v[off+k] = x
				}
			}
		}
	}
	for _, srv := range fleet.Servers {
		if v, ok := byID[srv.ID]; ok && complete(v) && len(d.ids) < liveServers {
			d.ids = append(d.ids, srv.ID)
			d.vals = append(d.vals, v)
		}
	}
	if len(d.ids) < liveServers {
		return nil, fmt.Errorf("only %d of %d servers are alive over the live span", len(d.ids), ingestServers)
	}
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	shiftAt := weekPts + rng.Intn(ppd)
	// The shift moves a server's load toward the middle of the range: a
	// busy server shifted up (or an idle one down) would sit at the clamp
	// for days, and a constant week is a window nimbus-ssa refuses to train
	// on (422 untrainable), failing that server's live-history predicts.
	for _, k := range rng.Perm(liveServers)[:driftServers] {
		v := d.vals[k]
		shift := driftShift
		if sum(v[shiftAt:])/float64(len(v)-shiftAt) >= 50 {
			shift = -driftShift
		}
		for s := shiftAt; s < len(v); s++ {
			v[s] = math.Max(0, math.Min(100, v[s]+shift))
		}
	}
	return d, nil
}

// capacityData takes the first capServers servers alive over the whole span
// of the capacity population, rounded to the lake's three decimals.
func capacityData(fleet *simulate.Fleet) (*ingestData, error) {
	start, end := fleet.Span()
	d := &ingestData{start: start}
	for _, srv := range fleet.Servers {
		if len(d.ids) == capServers {
			break
		}
		load := srv.Load()
		if !load.Start.Equal(start) || load.Len() != int(end.Sub(start)/slot) || !complete(load.Values) {
			continue
		}
		v := make([]float64, load.Len())
		for k, x := range load.Values {
			v[k] = math.Round(x*1000) / 1000
		}
		d.ids = append(d.ids, srv.ID)
		d.vals = append(d.vals, v)
	}
	if len(d.ids) < capServers {
		return nil, fmt.Errorf("only %d of %d capacity servers are alive over the span", len(d.ids), capFleetServers)
	}
	return d, nil
}

func complete(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) {
			return false
		}
	}
	return true
}

// batches pre-encodes a population's telemetry after its pre-fed prefix,
// slot-block by slot-block, ingestGroup servers per batch; with sweepK > 0
// every sweepK-th batch carries a sweep clause over the live week.
func batches(d *ingestData, sweepK int) []ingestOp {
	var out []ingestOp
	for from := d.prefeed; from+ingestSlots <= len(d.vals[0]); from += ingestSlots {
		for lo := 0; lo < len(d.ids); lo += ingestGroup {
			sweep := sweepK > 0 && len(out)%sweepK == sweepK-1
			out = append(out, encodeIngest(d, lo, min(lo+ingestGroup, len(d.ids)), from, from+ingestSlots, sweep))
		}
	}
	return out
}

// liveSchedule spreads the live stream's batches evenly over the open-loop
// time at ingestBatchRate and adds live-history predicts as a seeded Poisson
// stream, split into ingestRounds rounds.
func liveSchedule(rng *rand.Rand, d *ingestData, openDur time.Duration) []ingestRound {
	all := batches(d, ingestSweepK)
	n := min(len(all), int(ingestBatchRate*openDur.Seconds()))
	per := openDur / ingestRounds
	rounds := make([]ingestRound, ingestRounds)
	for r := range rounds {
		type timed struct {
			at time.Duration
			op ingestOp
		}
		var ops []timed
		lo, hi := r*n/ingestRounds, (r+1)*n/ingestRounds
		for k, at := range evenOffsets(hi-lo, per) {
			ops = append(ops, timed{at, all[lo+k]})
		}
		for _, at := range poissonOffsets(rng, ingestPredRate, per) {
			id := d.ids[rng.Intn(len(d.ids))]
			ops = append(ops, timed{at, ingestOp{body: encodeLivePredict(id), server: id}})
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
		for _, t := range ops {
			rounds[r].ops = append(rounds[r].ops, t.op)
			rounds[r].offsets = append(rounds[r].offsets, t.at)
		}
	}
	return rounds
}

// encodeIngest writes one /v2/ingest batch: servers [lo, hi) × slots
// [from, to), optionally with a sweep clause over the live week.
func encodeIngest(d *ingestData, lo, hi, from, to int, sweep bool) ingestOp {
	var buf []byte
	buf = append(buf, `{"servers":[`...)
	start := d.start.Add(time.Duration(from) * slot).UTC()
	points := 0
	for k := lo; k < hi; k++ {
		if k > lo {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"server_id":`...)
		buf = strconv.AppendQuote(buf, d.ids[k])
		buf = append(buf, `,"start":"`...)
		buf = start.AppendFormat(buf, time.RFC3339)
		buf = append(buf, `","interval_min":`...)
		buf = strconv.AppendInt(buf, int64(slot/time.Minute), 10)
		buf = append(buf, `,"values":[`...)
		for s := from; s < to; s++ {
			if s > from {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, d.vals[k][s], 'f', -1, 64)
			points++
		}
		buf = append(buf, "]}"...)
	}
	buf = append(buf, ']')
	if sweep {
		buf = append(buf, `,"sweep":{"region":"`+region+`","week":`+strconv.Itoa(ingestLiveWeek)+`}`...)
	}
	buf = append(buf, '}')
	return ingestOp{body: buf, points: points, ingest: true, lo: lo, hi: hi, to: to}
}

func encodeLivePredict(serverID string) []byte {
	buf := []byte(`{"scenario":"` + scenario + `","region":"` + region + `","server_id":`)
	buf = strconv.AppendQuote(buf, serverID)
	return append(buf, `,"live_history":true,"horizon":288,"window_points":12}`...)
}

// checkLivePredict verifies a live-history predict's shape: the deployed
// model served a finite full day for the requested server.
func checkLivePredict(reply []byte, serverID string) error {
	var r predictReply
	if err := json.Unmarshal(reply, &r); err != nil {
		return fmt.Errorf("decode predict reply: %w", err)
	}
	if r.ServerID != serverID || r.Model != forecast.NameSSA || len(r.Forecast.Values) != ppd {
		return fmt.Errorf("live predict for %s: server %q model %q, %d values", serverID, r.ServerID, r.Model, len(r.Forecast.Values))
	}
	for _, v := range r.Forecast.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("live predict for %s: non-finite forecast", serverID)
		}
	}
	return nil
}

// waitRefreshed waits up to limit until the refreshers have nothing queued
// and every drift listing has seen its refresh.
func waitRefreshed(w *world, lags *lagTracker, limit time.Duration) {
	for deadline := time.Now().Add(limit); time.Now().Before(deadline) && (pendingRefreshes(w) > 0 || lags.open() > 0); {
		time.Sleep(10 * time.Millisecond)
	}
}

func pendingRefreshes(w *world) int {
	n := 0
	for _, rep := range w.reps {
		n += rep.ref.Stats().Pending
	}
	return n
}

// probeSweeps times DriftDetector.Sweep over the live week on each replica.
func probeSweeps(w *world) float64 {
	var total time.Duration
	n := 0
	for _, rep := range w.reps {
		for k := 0; k < 3; k++ {
			t := time.Now()
			if _, err := rep.det.Sweep(context.Background(), region, ingestLiveWeek); err == nil {
				total += time.Since(t)
				n++
			}
		}
	}
	return ratio(ms(total), float64(n))
}

func meanBytes(sets ...[]ingestOp) float64 {
	total, n := 0, 0
	for _, set := range sets {
		for _, op := range set {
			if op.ingest {
				total += len(op.body)
				n++
			}
		}
	}
	return ratio(float64(total), float64(n))
}

// lagTracker measures refresh lag: from the ingest request whose sweep
// listed a server as drifted to the first poll that finds the server's
// PredictionDoc with more refreshes than before the listing.
type lagTracker struct {
	db      *cosmos.DB
	mu      sync.Mutex
	pending map[string]lagStart
	seen    map[string]int
	lags    []float64
}

type lagStart struct {
	at   time.Time
	base int
}

func newLagTracker(db *cosmos.DB) *lagTracker {
	return &lagTracker{db: db, pending: map[string]lagStart{}, seen: map[string]int{}}
}

// listed starts a lag for every listed server without one in flight.
func (lt *lagTracker) listed(ids []string, at time.Time) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for _, id := range ids {
		if _, ok := lt.pending[id]; !ok {
			lt.pending[id] = lagStart{at: at, base: lt.seen[id]}
		}
	}
}

func (lt *lagTracker) open() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.pending)
}

// poll checks the pending servers' documents every 2ms until ctx ends.
func (lt *lagTracker) poll(ctx context.Context) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	col := lt.db.Collection("predictions")
	var doc struct {
		Refreshes int `json:"refreshes"`
	}
	var ids []string
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		lt.mu.Lock()
		ids = ids[:0]
		for id := range lt.pending {
			ids = append(ids, id)
		}
		lt.mu.Unlock()
		for _, id := range ids {
			doc.Refreshes = 0
			if err := col.Get(region, liveDocID(id), &doc); err != nil {
				continue
			}
			now := time.Now()
			lt.mu.Lock()
			if st, ok := lt.pending[id]; ok && doc.Refreshes > st.base {
				lt.lags = append(lt.lags, ms(now.Sub(st.at)))
				lt.seen[id] = doc.Refreshes
				delete(lt.pending, id)
			}
			lt.mu.Unlock()
		}
	}
}

func liveDocID(serverID string) string {
	return fmt.Sprintf("%s/week-%04d", serverID, ingestLiveWeek)
}

// verifyRefreshed checks every refreshed document of the live week against
// a fresh nimbus-ssa retrain on the window the refresher trains on: up to
// seven whole days of the server's live window immediately before the
// backup day.
func verifyRefreshed(b *bench, w *world) (refreshed int) {
	var docs []pipeline.PredictionDoc
	err := w.db.Collection("predictions").Query(region, func(_ string, body json.RawMessage) error {
		var doc pipeline.PredictionDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return err
		}
		if doc.Week == ingestLiveWeek && doc.Refreshes > 0 {
			docs = append(docs, doc)
		}
		return nil
	})
	b.check(err == nil, "query predictions: %v", err)
	for _, doc := range docs {
		snap, ok := w.owner(doc.ServerID).ing.SnapshotInto(doc.ServerID, nil)
		if !ok {
			b.check(false, "refreshed %s has no live window", doc.ServerID)
			continue
		}
		dayIdx := int(doc.BackupDay.Sub(snap.Start) / slot)
		train := min(7*ppd, dayIdx-dayIdx%ppd)
		hist, err := snap.View(dayIdx-train, dayIdx)
		if err != nil {
			b.check(false, "refreshed %s: window: %v", doc.ServerID, err)
			continue
		}
		pred, err := forecast.PredictDay(forecast.NewSSA(forecast.SSAConfig{}), hist)
		if err != nil {
			b.check(false, "refreshed %s: retrain: %v", doc.ServerID, err)
			continue
		}
		b.check(digest(pred.Values) == digest(doc.Values),
			"refreshed %s (refreshes=%d) differs from a fresh retrain on its live window", doc.ServerID, doc.Refreshes)
	}
	return len(docs)
}

// verifyViews compares sampled servers' live windows with the generated
// series, up to the last slot the sent batches carried for each server.
func verifyViews(b *bench, w *world, d *ingestData, sent []ingestOp, rng *rand.Rand) {
	upto := make([]int, len(d.ids))
	for k := range upto {
		upto[k] = d.prefeed
	}
	for _, op := range sent {
		if op.ingest {
			for k := op.lo; k < op.hi; k++ {
				upto[k] = max(upto[k], op.to)
			}
		}
	}
	for n := 0; n < 16; n++ {
		k := rng.Intn(len(d.ids))
		id := d.ids[k]
		if upto[k] == 0 {
			continue
		}
		view, ok := w.owner(id).ing.View(id)
		if !ok {
			b.check(false, "no live window for %s", id)
			continue
		}
		off := int(view.Start.Sub(d.start) / slot)
		bad := 0
		for i, v := range view.Values {
			want := math.NaN()
			if s := off + i; s >= 0 && s < upto[k] {
				want = d.vals[k][s]
			}
			if v != want && !(timeseries.IsMissing(v) && math.IsNaN(want)) {
				bad++
			}
		}
		b.check(bad == 0 && off+len(view.Values) == upto[k],
			"live window of %s differs from the generated series at %d slots", id, bad)
	}
}
