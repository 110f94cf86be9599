package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/lake"
	"seagull/internal/obs"
	"seagull/internal/registry"
	"seagull/internal/router"
	"seagull/internal/serving"
	"seagull/internal/shard"
	"seagull/internal/stream"
)

const (
	region   = "westus"
	scenario = "backup"
	slot     = 5 * time.Minute
	ppd      = int(24 * time.Hour / slot)
	weekPts  = 7 * ppd
)

// worldCfg parameterizes the serving fleet.
type worldCfg struct {
	model string    // deployed (scenario, region) model
	epoch time.Time // ingest slot origin
	slots int       // retained ring slots per server
	rec   *recorder // nil: untraced
	// prepare runs on the shared substrates before the replicas mount —
	// the weekly pipeline that stores the predictions drift sweeps judge.
	prepare func(store *lake.Store, db *cosmos.DB, reg *registry.Registry) error
	// prefeed fills a replica's rings in-process before its WAL opens, so
	// pre-fed history is not replayed through the commit buffers.
	prefeed func(name string, ing *stream.Ingestor, smap *shard.Map) error
}

// replica is one serving replica with its shard's stream stack: ingest
// rings, WAL durability, drift detector and background refresher.
type replica struct {
	name      string
	ing       *stream.Ingestor
	dur       *stream.Durability
	det       *stream.DriftDetector
	ref       *stream.Refresher
	svc       *serving.Service
	srv       *httptest.Server
	svcTracer *obs.Tracer // nil when untraced
	refTracer *obs.Tracer
	unbind    func()
}

// world is two replicas behind a router over one lake, one document store
// and one registry, with a client limited to nproc connections.
type world struct {
	store  *lake.Store
	db     *cosmos.DB
	reg    *registry.Registry
	reps   []*replica
	rt     *router.Router
	front  *httptest.Server
	client *http.Client
	rec    *recorder

	cancel context.CancelFunc
	bg     sync.WaitGroup
}

// newWorld builds the fleet from the system's public constructors.
func newWorld(b *bench, dir string, cfg worldCfg) (*world, error) {
	store, err := lake.Open(filepath.Join(dir, "lake"))
	if err != nil {
		return nil, err
	}
	db, err := cosmos.Open("")
	if err != nil {
		return nil, err
	}
	reg := registry.New(nil)
	if cfg.prepare != nil {
		if err := cfg.prepare(store, db, reg); err != nil {
			return nil, err
		}
	}
	reg.Deploy(registry.Target{Scenario: scenario, Region: region}, cfg.model, "perfbench")

	names := []string{"shard-a", "shard-b"}
	rcfg := router.Config{Seed: 42}
	smap, err := shard.New(rcfg.Seed, names)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &world{store: store, db: db, reg: reg, rec: cfg.rec, cancel: cancel}
	for _, name := range names {
		rep, err := w.mountReplica(ctx, name, cfg, smap)
		if err != nil {
			w.close()
			return nil, err
		}
		w.reps = append(w.reps, rep)
		rcfg.Replicas = append(rcfg.Replicas, router.Replica{Name: name, BaseURL: rep.srv.URL})
	}
	w.rt, err = router.New(rcfg)
	if err != nil {
		w.close()
		return nil, err
	}
	w.front = httptest.NewServer(cfg.rec.wrap("router", w.rt.Handler()))
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        b.nproc,
		MaxIdleConnsPerHost: b.nproc,
		MaxConnsPerHost:     b.nproc,
		DisableCompression:  true,
	}}
	return w, nil
}

func (w *world) mountReplica(ctx context.Context, name string, cfg worldCfg, smap *shard.Map) (*replica, error) {
	rep := &replica{name: name}
	rep.ing = stream.NewIngestor(stream.Config{Interval: slot, Epoch: cfg.epoch, Slots: cfg.slots})
	rep.dur = stream.NewDurability(rep.ing, w.store, stream.DurabilityConfig{Namespace: name})
	if _, err := rep.dur.Recover(); err != nil {
		return nil, fmt.Errorf("%s: recover: %w", name, err)
	}
	if cfg.prefeed != nil {
		if err := cfg.prefeed(name, rep.ing, smap); err != nil {
			return nil, fmt.Errorf("%s: prefeed: %w", name, err)
		}
	}
	if err := rep.dur.Start(ctx); err != nil {
		return nil, fmt.Errorf("%s: durability: %w", name, err)
	}
	if cfg.rec != nil {
		rep.svcTracer = obs.NewTracer(obs.TracerConfig{Slowest: -1})
		rep.refTracer = obs.NewTracer(obs.TracerConfig{Slowest: -1})
	}
	rep.det = stream.NewDriftDetector(rep.ing, w.db, stream.DriftConfig{})
	pool := serving.NewModelPool(serving.PoolConfig{})
	rep.unbind = pool.Bind(w.reg)
	rep.ref = stream.NewRefresher(rep.ing, w.db, w.reg, serving.StreamPool(pool), stream.RefreshConfig{
		Workers: 1,
		Tracer:  rep.refTracer,
	})
	w.bg.Add(1)
	go func() {
		defer w.bg.Done()
		_ = rep.ref.Run(ctx)
	}()
	rep.svc = serving.NewService(w.reg, w.db, serving.ServiceConfig{
		Ingestor:   rep.ing,
		Drift:      rep.det,
		Refresher:  rep.ref,
		Durability: rep.dur,
		Tracer:     rep.svcTracer,
	})
	rep.srv = httptest.NewServer(cfg.rec.wrap("replica", rep.svc.Handler()))
	return rep, nil
}

// close stops every server and background goroutine and waits for them.
func (w *world) close() {
	if w.front != nil {
		w.front.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	for _, rep := range w.reps {
		if rep.srv != nil {
			rep.srv.Close()
		}
	}
	w.cancel()
	w.bg.Wait()
	for _, rep := range w.reps {
		_ = rep.dur.Close()
		if rep.svc != nil {
			rep.svc.Close()
		}
		rep.unbind()
	}
}

// owner returns the replica owning serverID.
func (w *world) owner(serverID string) *replica {
	name := w.rt.Map().Owner(serverID)
	for _, rep := range w.reps {
		if rep.name == name {
			return rep
		}
	}
	return nil
}

// post sends one pre-encoded body through the router and reads the whole
// reply; done is when the reply was complete.
func (w *world) post(path string, body []byte, reqID string) (reply []byte, done time.Time, err error) {
	req, err := http.NewRequest(http.MethodPost, w.front.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, time.Time{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, time.Time{}, err
	}
	reply, err = io.ReadAll(resp.Body)
	done = time.Now()
	resp.Body.Close()
	if err != nil {
		return nil, done, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, done, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, reply)
	}
	return reply, done, nil
}

// fleetState is the counters read after a phase: the router's fleet view
// and each replica's in-process varz and tracer aggregates.
type fleetState struct {
	fleet   router.FleetVarz
	varz    []serving.Varz
	svcSt   []map[string]obs.StageStat
	refSt   []map[string]obs.StageStat
	ingests []stream.Stats
}

func (w *world) state() fleetState {
	st := fleetState{fleet: w.rt.FleetVarz(context.Background())}
	for _, rep := range w.reps {
		st.varz = append(st.varz, rep.svc.VarzSnapshot())
		st.svcSt = append(st.svcSt, stageMap(rep.svcTracer))
		st.refSt = append(st.refSt, stageMap(rep.refTracer))
		st.ingests = append(st.ingests, rep.ing.Stats())
	}
	return st
}

func stageMap(t *obs.Tracer) map[string]obs.StageStat {
	out := map[string]obs.StageStat{}
	for _, s := range t.StageStats() {
		out[s.Stage] = s
	}
	return out
}

// stage sums one obs stage over the replicas' tracers.
func stage(sts []map[string]obs.StageStat, name string) (count, hits uint64, totalMs float64) {
	for _, m := range sts {
		s := m[name]
		count += s.Count
		hits += s.Hits
		totalMs += s.TotalMs
	}
	return count, hits, totalMs
}

// routerRetries compares the replicas' handled predict and ingest requests
// with the router's forwards: the client's retry loop turns one forward
// into several replica calls, and the aggregate router self time is exact
// only when it never does.
func (st fleetState) routerRetries() int {
	handled := uint64(0)
	for _, v := range st.varz {
		for _, route := range []string{"POST /v2/predict", "POST /v2/ingest"} {
			handled += v.Endpoints[route].Count
		}
	}
	forwards := uint64(0)
	for _, r := range st.fleet.Replicas {
		forwards += r.Forwards
	}
	return int(handled) - int(forwards)
}

// fillServingLayers derives the router, shard, serving, admission, pool and
// forecast rows shared by the HTTP workloads. route is the workload's main
// route ("POST /v2/predict" or "POST /v2/ingest"); spans come from the
// traced handler wrappers.
func fillServingLayers(out *passOut, st fleetState, spans []span, route string) {
	l := out.layer
	rn, rMs := spanStats(spans, "router "+route)
	_, pMs := spanStats(spans, "replica POST /v2/predict")
	pn, _ := spanStats(spans, "replica POST /v2/predict")
	in, iMs := spanStats(spans, "replica POST /v2/ingest")
	repMs := pMs
	if route == "POST /v2/ingest" {
		repMs = iMs
	}
	l["router.self_ms"] = ratio(rMs-repMs, float64(rn))
	l["serving.predict_handler_ms"] = ratio(pMs, float64(pn))
	l["serving.ingest_handler_ms"] = ratio(iMs, float64(in))

	var reqs, errs uint64
	for _, r := range st.fleet.Routes {
		reqs += r.Count
		errs += r.Errors
	}
	l["router.requests"] = float64(reqs)
	l["router.errors"] = float64(errs)
	l["router.retries"] = float64(st.routerRetries())

	var fwd []float64
	for _, r := range st.fleet.Replicas {
		fwd = append(fwd, float64(r.Forwards))
	}
	maxF := 0.0
	for _, f := range fwd {
		maxF = max(maxF, f)
	}
	l["shard.skew"] = ratio(maxF, sum(fwd)/float64(len(fwd)))

	// Wire time: replica handler time not covered by any obs stage span —
	// JSON decode, validation, encode and the mux.
	stageMs := 0.0
	for _, m := range st.svcSt {
		for _, s := range m {
			stageMs += s.TotalMs
		}
	}
	l["serving.wire_ms"] = ratio(pMs+iMs-stageMs, float64(pn+in))

	an, _, aMs := stage(st.svcSt, "admission")
	l["admission.wait_ms"] = ratio(aMs, float64(an))
	var sheds, brown, hits, misses uint64
	for _, v := range st.varz {
		if v.Admission != nil {
			sheds += v.Admission.Sheds
			brown += v.Admission.BrownoutEntries
		}
		hits += v.Pool.Hits
		misses += v.Pool.Misses
	}
	l["admission.sheds"] = float64(sheds)
	l["admission.brownouts"] = float64(brown)
	l["pool.hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	// Forecast work on both sides: request-path trains and refresh retrains.
	all := append(append([]map[string]obs.StageStat(nil), st.svcSt...), st.refSt...)
	tn, th, tMs := stage(all, "train")
	inf, _, infMs := stage(all, "inference")
	l["forecast.train_ms"] = ratio(tMs, float64(tn))
	l["forecast.infer_ms"] = ratio(infMs, float64(inf))
	l["forecast.memo_hit_ratio"] = ratio(float64(th), float64(tn))
}

// fillStreamLayers derives the stream, drift, refresh, WAL and cosmos rows.
func fillStreamLayers(out *passOut, st fleetState) {
	l := out.layer
	var ing stream.Stats
	for _, s := range st.ingests {
		ing.Appended += s.Appended
		ing.Duplicates += s.Duplicates
		ing.TooOld += s.TooOld
		ing.TooNew += s.TooNew
		ing.BadValues += s.BadValues
	}
	l["stream.appended"] = float64(ing.Appended)
	l["stream.duplicates"] = float64(ing.Duplicates)
	l["stream.rejected"] = float64(ing.TooOld + ing.TooNew + ing.BadValues)
	n, _, iMs := stage(st.svcSt, "ingest")
	l["stream.ingest_ms"] = ratio(iMs, float64(n))
	sn, _, sMs := stage(append(append([]map[string]obs.StageStat(nil), st.svcSt...), st.refSt...), "snapshot")
	l["stream.snapshot_ms"] = ratio(sMs, float64(sn))

	var drifted uint64
	var commits, records, bytes, snaps uint64
	var rs stream.RefreshStats
	for _, v := range st.varz {
		if v.Drift != nil {
			drifted += v.Drift.Drifted
		}
		if v.Refresh != nil {
			rs.Refreshed += v.Refresh.Refreshed
			rs.Coalesced += v.Refresh.Coalesced
			rs.Dropped += v.Refresh.Dropped
		}
		if v.Durability != nil {
			commits += v.Durability.Commits
			records += v.Durability.CommitRecords
			bytes += v.Durability.CommitBytes
			snaps += v.Durability.Snapshots
		}
	}
	l["drift.drifted"] = float64(drifted)
	l["refresh.refreshed"] = float64(rs.Refreshed)
	l["refresh.coalesced"] = float64(rs.Coalesced)
	l["refresh.dropped"] = float64(rs.Dropped)
	l["wal.commits"] = float64(commits)
	l["wal.records_per_commit"] = ratio(float64(records), float64(commits))
	l["wal.bytes_per_point"] = ratio(float64(bytes), float64(records))
	l["wal.snapshots"] = float64(snaps)

	// A refresh job is its five spans: snapshot, checkout, train,
	// inference and upsert, all on the refresher's own tracer.
	jobMs := 0.0
	for _, m := range st.refSt {
		for _, s := range m {
			jobMs += s.TotalMs
		}
	}
	un, _, uMs := stage(st.refSt, "upsert")
	l["refresh.job_ms"] = ratio(jobMs, float64(un))
	l["cosmos.upsert_ms"] = ratio(uMs, float64(un))
}
