// Package router is the stateless front of the region-sharded fleet: N
// serving replicas, each owning a consistent-hash shard of server IDs (its
// shard's ingest rings, WAL, snapshots, sweeper and warm pools), fronted by
// this thin process that routes by server ID and aggregates observability
// fleet-wide.
//
// The router holds no durable state — ownership is a pure function of the
// shard map's (seed, membership), so any number of router processes
// configured identically route identically, and a router restart loses
// nothing. Per-replica requests ride the serving client's retry loop
// (jittered exponential backoff honoring Retry-After) and per-path circuit
// breaker, so a draining replica is retried until its replacement is up and
// a dead one fails fast instead of absorbing every request's timeout.
//
// Pass-through routes relay bytes: the router reads a request body once,
// forwards it unchanged, and writes the replica's 200 reply back verbatim.
// A predict is decoded only as far as its server_id and live_history keys,
// so a 2016-point history is never parsed into floats at the router and a
// routed reply is byte-identical to the owning replica's direct reply. Only
// the routes that must split or merge per-item results decode fully.
//
// Routing semantics per endpoint:
//
//   - POST /v2/predict: relayed to the owner of server_id (mandatory for
//     live_history — the live window lives in the owner's rings); requests
//     without a server_id are stateless and round-robin across replicas
//     with failover.
//   - POST /v2/predict/batch: split by item owner, fanned out concurrently,
//     per-item results merged back in request order. A replica failure
//     fails only its own items.
//   - POST /v2/ingest: servers and points split by owner; the optional
//     sweep clause broadcasts to every replica (each sweeps its own ring);
//     tallies are summed.
//   - GET /varz, /metrics: aggregated fleet-wide (per-replica documents
//     plus summed fleet totals / router counters).
//   - GET /v2/predictions/{region}/{week}: fanned out and merged by server
//     (replicas share the document store in-region, but a refresher upserts
//     only its own shard, so the union is the fleet view).
//   - POST /v2/advise, GET /v2/models: stateless; relayed round-robin with
//     failover to the next replica.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/serving"
	"seagull/internal/shard"
	"seagull/internal/simclock"
)

// Replica names one serving replica and its base URL.
type Replica struct {
	Name    string `json:"name"`
	BaseURL string `json:"base_url"`
}

// Config parameterizes a Router. The zero value of the optional fields
// selects production defaults.
type Config struct {
	// Seed fixes the shard map. Every router (and every tool that needs to
	// compute ownership offline) must share it.
	Seed uint64
	// Replicas is the initial membership. At least one is required.
	Replicas []Replica
	// Retry bounds the per-replica retry loop; the zero value enables 4
	// attempts with a 2s budget — sized for the drain window of a rolling
	// restart.
	Retry serving.RetryConfig
	// Breaker parameterizes the per-replica, per-path circuit breaker; the
	// zero value opens after 5 consecutive retryable failures with a 1s
	// cooldown. Threshold < 0 disables it.
	Breaker serving.BreakerConfig
	// HTTP is the upstream transport; nil builds one with a 60s timeout.
	HTTP *http.Client
	// MaxBodyBytes bounds inbound request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// Clock paces retries, breaker cooldowns and uptime; nil means the wall
	// clock.
	Clock simclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Retry.MaxAttempts == 0 {
		c.Retry.MaxAttempts = 4
		if c.Retry.MaxElapsed == 0 {
			c.Retry.MaxElapsed = 2 * time.Second
		}
	}
	if c.Breaker.Threshold == 0 {
		c.Breaker.Threshold = 5
	} else if c.Breaker.Threshold < 0 {
		c.Breaker.Threshold = 0
	}
	if c.Breaker.Cooldown <= 0 {
		c.Breaker.Cooldown = time.Second
	}
	if c.HTTP == nil {
		c.HTTP = &http.Client{Timeout: 60 * time.Second}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	c.Clock = simclock.Or(c.Clock)
	return c
}

// routeVars is one route's live counters.
type routeVars struct {
	count  atomic.Uint64
	errors atomic.Uint64
}

// replicaVars is one replica's forwarding counters. They survive membership
// changes, so a drain/rejoin keeps its history.
type replicaVars struct {
	forwards atomic.Uint64
	failures atomic.Uint64
}

// Router fronts the replica fleet. Construct with New; it is an
// http.Handler.
type Router struct {
	cfg     Config
	clock   simclock.Clock
	started time.Time
	mux     *http.ServeMux

	// mu guards the membership view: the shard map and the client set swap
	// together, atomically from a request's point of view.
	mu      sync.RWMutex
	smap    *shard.Map
	clients map[string]*serving.Client

	rr atomic.Uint64 // round-robin cursor for stateless forwards

	routesMu sync.Mutex
	routes   map[string]*routeVars
	repMu    sync.Mutex
	replicas map[string]*replicaVars
}

// New builds a router over the configured replicas.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:      cfg,
		clock:    cfg.Clock,
		routes:   map[string]*routeVars{},
		replicas: map[string]*replicaVars{},
	}
	rt.started = rt.clock.Now()
	names := make([]string, 0, len(cfg.Replicas))
	clients := make(map[string]*serving.Client, len(cfg.Replicas))
	for _, rep := range cfg.Replicas {
		if rep.BaseURL == "" {
			return nil, fmt.Errorf("router: replica %q has no base URL", rep.Name)
		}
		if _, dup := clients[rep.Name]; dup {
			return nil, fmt.Errorf("router: duplicate replica %q", rep.Name)
		}
		names = append(names, rep.Name)
		clients[rep.Name] = rt.newClient(rep.BaseURL)
	}
	smap, err := shard.New(cfg.Seed, names)
	if err != nil {
		return nil, err
	}
	rt.smap, rt.clients = smap, clients

	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, rt.instrument(pattern, h))
	}
	handle("GET /healthz", rt.handleHealth)
	handle("GET /readyz", rt.handleReady)
	handle("GET /varz", rt.handleVarz)
	handle("GET /metrics", rt.handleMetrics)
	handle("POST /v2/predict", rt.handlePredict)
	handle("POST /v2/predict/batch", rt.handleBatch)
	handle("POST /v2/ingest", rt.handleIngest)
	handle("POST /v2/advise", rt.forward("/v2/advise"))
	handle("GET /v2/models", rt.forward("/v2/models"))
	handle("GET /v2/predictions/{region}/{week}", rt.handlePredictions)
	rt.mux = mux
	return rt, nil
}

// newClient builds the retry/breaker-armed client for one replica URL.
func (rt *Router) newClient(baseURL string) *serving.Client {
	return &serving.Client{
		BaseURL: baseURL,
		HTTP:    rt.cfg.HTTP,
		Retry:   rt.cfg.Retry,
		Breaker: rt.cfg.Breaker,
		Clock:   rt.cfg.Clock,
	}
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Handler returns the router as an http.Handler (itself).
func (rt *Router) Handler() http.Handler { return rt }

// Map returns the current shard map.
func (rt *Router) Map() *shard.Map {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.smap
}

// Members returns the current replica names, sorted.
func (rt *Router) Members() []string { return rt.Map().Replicas() }

// Join adds a replica to the membership. Only the keys the newcomer wins
// move to it (≈ 1/(N+1) of the fleet); every other assignment is untouched.
func (rt *Router) Join(rep Replica) error {
	if rep.BaseURL == "" {
		return fmt.Errorf("router: replica %q has no base URL", rep.Name)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	smap, err := rt.smap.WithJoined(rep.Name)
	if err != nil {
		return err
	}
	clients := make(map[string]*serving.Client, len(rt.clients)+1)
	for n, c := range rt.clients {
		clients[n] = c
	}
	clients[rep.Name] = rt.newClient(rep.BaseURL)
	rt.smap, rt.clients = smap, clients
	return nil
}

// Leave removes a replica from the membership; only the keys it owned move.
// A fresh client is built if the replica later rejoins, so a stale open
// breaker never outlives the member that tripped it.
func (rt *Router) Leave(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	smap, err := rt.smap.WithLeft(name)
	if err != nil {
		return err
	}
	clients := make(map[string]*serving.Client, len(rt.clients)-1)
	for n, c := range rt.clients {
		if n != name {
			clients[n] = c
		}
	}
	rt.smap, rt.clients = smap, clients
	return nil
}

// view snapshots the membership for one request.
func (rt *Router) view() (*shard.Map, map[string]*serving.Client) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.smap, rt.clients
}

// ownerClient resolves a server ID to its owning replica's client.
func (rt *Router) ownerClient(serverID string) (string, *serving.Client) {
	smap, clients := rt.view()
	name := smap.Owner(serverID)
	return name, clients[name]
}

// nextClient picks a replica for a stateless forward, round-robin.
func (rt *Router) nextClient(skip map[string]bool) (string, *serving.Client) {
	smap, clients := rt.view()
	names := smap.Replicas()
	n := len(names)
	start := int(rt.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		name := names[(start+i)%n]
		if skip[name] {
			continue
		}
		return name, clients[name]
	}
	return "", nil
}

// replicaVarsFor returns (creating once) the forwarding counters of one
// replica.
func (rt *Router) replicaVarsFor(name string) *replicaVars {
	rt.repMu.Lock()
	defer rt.repMu.Unlock()
	rv, ok := rt.replicas[name]
	if !ok {
		rv = &replicaVars{}
		rt.replicas[name] = rv
	}
	return rv
}

// observeForward records one upstream call's outcome.
func (rt *Router) observeForward(name string, err error) {
	rv := rt.replicaVarsFor(name)
	rv.forwards.Add(1)
	if err != nil {
		rv.failures.Add(1)
	}
}

// instrument wraps a handler with per-route request/error accounting.
func (rt *Router) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	rt.routesMu.Lock()
	rv, ok := rt.routes[name]
	if !ok {
		rv = &routeVars{}
		rt.routes[name] = rv
	}
	rt.routesMu.Unlock()
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &serving.StatusWriter{ResponseWriter: w, Status: http.StatusOK}
		h(sw, r)
		rv.count.Add(1)
		if sw.Status >= 400 {
			rv.errors.Add(1)
		}
	}
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// ReadyStatus is the /readyz document: the router is ready only when every
// shard has a ready owner — partial coverage means routed requests would
// fail for a deterministic slice of the fleet.
type ReadyStatus struct {
	Ready    bool            `json:"ready"`
	Replicas map[string]bool `json:"replicas"`
}

// Ready probes every replica's /readyz and reports fleet coverage.
func (rt *Router) Ready(ctx context.Context) ReadyStatus {
	smap, clients := rt.view()
	names := smap.Replicas()
	st := ReadyStatus{Ready: true, Replicas: make(map[string]bool, len(names))}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, name := range names {
		wg.Add(1)
		go func(name string, c *serving.Client) {
			defer wg.Done()
			ok := c.Ready(ctx)
			mu.Lock()
			st.Replicas[name] = ok
			if !ok {
				st.Ready = false
			}
			mu.Unlock()
		}(name, clients[name])
	}
	wg.Wait()
	return st
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	st := rt.Ready(r.Context())
	status := http.StatusOK
	if !st.Ready {
		status = http.StatusServiceUnavailable
	}
	serving.WriteJSON(w, status, st)
}

// readBody reads the bounded request body whole, sized from Content-Length
// when the client sent one.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	n := r.ContentLength
	if n < 0 || n > rt.cfg.MaxBodyBytes {
		n = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			serving.WriteError(w, http.StatusRequestEntityTooLarge, serving.CodeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return nil, false
		}
		serving.WriteError(w, http.StatusBadRequest, serving.CodeBadRequest, "read body: "+err.Error())
		return nil, false
	}
	return buf.Bytes(), true
}

// decode reads a bounded JSON body into into.
func (rt *Router) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	body, ok := rt.readBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, into); err != nil {
		serving.WriteError(w, http.StatusBadRequest, serving.CodeBadRequest, "malformed JSON: "+err.Error())
		return false
	}
	return true
}

// writeUpstream translates an upstream call failure into a response. A
// structured replica error passes through verbatim (status, code, message);
// a transport failure or an open breaker becomes a retryable 503 naming the
// replica, so a client (or an upstream router) treats the partial outage
// exactly like a drain window.
func writeUpstream(w http.ResponseWriter, replica string, err error) {
	var api *serving.APIError
	if errors.As(err, &api) {
		if api.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(api.RetryAfter.Seconds()+0.5)))
		}
		serving.WriteError(w, api.Status, api.Code, api.Message)
		return
	}
	w.Header().Set("Retry-After", "1")
	if errors.Is(err, serving.ErrCircuitOpen) {
		serving.WriteError(w, http.StatusServiceUnavailable, serving.CodeOverloaded,
			fmt.Sprintf("replica %s: %v", replica, err))
		return
	}
	serving.WriteError(w, http.StatusServiceUnavailable, serving.CodeOverloaded,
		fmt.Sprintf("replica %s unavailable: %v", replica, err))
}

// upstreamErrorBody is writeUpstream's per-item form for batch merges.
func upstreamErrorBody(replica string, err error) *serving.ErrorBody {
	var api *serving.APIError
	if errors.As(err, &api) {
		return &serving.ErrorBody{Code: api.Code, Message: api.Message}
	}
	return &serving.ErrorBody{
		Code:    serving.CodeOverloaded,
		Message: fmt.Sprintf("replica %s unavailable: %v", replica, err),
	}
}
