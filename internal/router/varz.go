package router

import (
	"context"
	"net/http"
	"sort"
	"sync"

	"seagull/internal/obs"
	"seagull/internal/serving"
	"seagull/internal/simclock"
)

// Fleet-wide observability: /varz aggregates every replica's counters
// document next to the router's own routing counters, and /metrics renders
// the same aggregate in Prometheus exposition format. One scrape of the
// router is one view of the whole fleet.

// RouteVarz is one router route's counters.
type RouteVarz struct {
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
}

// ReplicaVarz is one replica's slice of the fleet document.
type ReplicaVarz struct {
	Ready bool `json:"ready"`
	// Forwards/Failures count the router's upstream calls to this replica
	// (retries inside the client are one forward).
	Forwards uint64 `json:"forwards"`
	Failures uint64 `json:"failures"`
	// Error carries the varz fetch failure when the replica was unreachable
	// (Varz is then nil).
	Error string        `json:"error,omitempty"`
	Varz  *serving.Varz `json:"varz,omitempty"`
}

// FleetTotals sums the load-bearing counters across every reachable
// replica — the numbers a capacity dashboard wants first.
type FleetTotals struct {
	Servers       int    `json:"servers"`
	Appended      uint64 `json:"appended"`
	Duplicates    uint64 `json:"duplicates"`
	Requests      uint64 `json:"http_requests"`
	RequestErrors uint64 `json:"http_request_errors"`
	PoolHits      uint64 `json:"pool_hits"`
	PoolMisses    uint64 `json:"pool_misses"`
	Drifted       uint64 `json:"drifted"`
	Refreshed     uint64 `json:"refreshed"`
	WALCommits    uint64 `json:"wal_commits"`
	WALRecords    uint64 `json:"wal_records"`
	Snapshots     uint64 `json:"snapshots"`
}

// FleetVarz is the router's /varz document.
type FleetVarz struct {
	UptimeSec float64  `json:"uptime_sec"`
	Seed      uint64   `json:"seed"`
	Members   []string `json:"members"`
	// ReadyReplicas counts members currently passing /readyz; the fleet has
	// full shard coverage only when it equals len(Members).
	ReadyReplicas int                    `json:"ready_replicas"`
	Routes        map[string]RouteVarz   `json:"routes"`
	Fleet         FleetTotals            `json:"fleet"`
	Replicas      map[string]ReplicaVarz `json:"replicas"`
}

// FleetVarz assembles the aggregated fleet document, probing every replica
// concurrently.
func (rt *Router) FleetVarz(ctx context.Context) FleetVarz {
	smap, clients := rt.view()
	names := smap.Replicas()
	out := FleetVarz{
		UptimeSec: simclock.Since(rt.clock, rt.started).Seconds(),
		Seed:      smap.Seed(),
		Members:   names,
		Routes:    map[string]RouteVarz{},
		Replicas:  make(map[string]ReplicaVarz, len(names)),
	}
	rt.routesMu.Lock()
	for name, rv := range rt.routes {
		out.Routes[name] = RouteVarz{Count: rv.count.Load(), Errors: rv.errors.Load()}
	}
	rt.routesMu.Unlock()

	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string, c *serving.Client) {
			defer wg.Done()
			rep := ReplicaVarz{Ready: c.Ready(ctx)}
			v, err := c.Varz(ctx)
			if err != nil {
				rep.Error = err.Error()
			} else {
				rep.Varz = &v
			}
			rv := rt.replicaVarsFor(name)
			rep.Forwards, rep.Failures = rv.forwards.Load(), rv.failures.Load()
			mu.Lock()
			defer mu.Unlock()
			out.Replicas[name] = rep
			if rep.Ready {
				out.ReadyReplicas++
			}
			if rep.Varz == nil {
				return
			}
			t := &out.Fleet
			t.PoolHits += rep.Varz.Pool.Hits
			t.PoolMisses += rep.Varz.Pool.Misses
			for _, ep := range rep.Varz.Endpoints {
				t.Requests += ep.Count
				t.RequestErrors += ep.Errors
			}
			if st := rep.Varz.Ingest; st != nil {
				t.Servers += st.Servers
				t.Appended += st.Appended
				t.Duplicates += st.Duplicates
			}
			if st := rep.Varz.Drift; st != nil {
				t.Drifted += st.Drifted
			}
			if st := rep.Varz.Refresh; st != nil {
				t.Refreshed += st.Refreshed
			}
			if st := rep.Varz.Durability; st != nil {
				t.WALCommits += st.Commits
				t.WALRecords += st.CommitRecords
				t.Snapshots += st.Snapshots
			}
		}(name, clients[name])
	}
	wg.Wait()
	return out
}

func (rt *Router) handleVarz(w http.ResponseWriter, r *http.Request) {
	serving.WriteJSON(w, http.StatusOK, rt.FleetVarz(r.Context()))
}

// WriteMetrics renders the fleet aggregate in Prometheus exposition format.
func (rt *Router) WriteMetrics(ctx context.Context, w http.ResponseWriter) error {
	v := rt.FleetVarz(ctx)
	e := obs.NewExpo(w)

	e.Gauge("seagull_router_uptime_seconds", "Seconds since the router started.", v.UptimeSec)
	e.Gauge("seagull_router_replicas", "Configured replica count.", float64(len(v.Members)))
	e.Gauge("seagull_router_ready_replicas", "Replicas currently passing readiness.", float64(v.ReadyReplicas))

	routes := make([]string, 0, len(v.Routes))
	for name := range v.Routes {
		routes = append(routes, name)
	}
	sort.Strings(routes)
	e.Header("seagull_router_requests_total", "counter", "Requests handled by the router, by route.")
	for _, name := range routes {
		e.Sample("seagull_router_requests_total", obs.Labels("route", name), float64(v.Routes[name].Count))
	}
	e.Header("seagull_router_request_errors_total", "counter", "Router requests answered with status >= 400, by route.")
	for _, name := range routes {
		e.Sample("seagull_router_request_errors_total", obs.Labels("route", name), float64(v.Routes[name].Errors))
	}

	e.Header("seagull_router_replica_up", "gauge", "1 when the replica passes readiness, by replica.")
	for _, name := range v.Members {
		up := 0.0
		if v.Replicas[name].Ready {
			up = 1
		}
		e.Sample("seagull_router_replica_up", obs.Labels("replica", name), up)
	}
	e.Header("seagull_router_replica_forwards_total", "counter", "Upstream calls forwarded, by replica.")
	for _, name := range v.Members {
		e.Sample("seagull_router_replica_forwards_total", obs.Labels("replica", name), float64(v.Replicas[name].Forwards))
	}
	e.Header("seagull_router_replica_failures_total", "counter", "Upstream calls that failed, by replica.")
	for _, name := range v.Members {
		e.Sample("seagull_router_replica_failures_total", obs.Labels("replica", name), float64(v.Replicas[name].Failures))
	}

	e.Gauge("seagull_fleet_servers", "Servers with live telemetry windows, fleet-wide.", float64(v.Fleet.Servers))
	e.Counter("seagull_fleet_ingest_appended_total", "Telemetry points appended, fleet-wide.", float64(v.Fleet.Appended))
	e.Counter("seagull_fleet_ingest_duplicates_total", "Duplicate telemetry points dropped, fleet-wide.", float64(v.Fleet.Duplicates))
	e.Counter("seagull_fleet_http_requests_total", "Requests handled by the replicas, fleet-wide.", float64(v.Fleet.Requests))
	e.Counter("seagull_fleet_http_request_errors_total", "Replica requests answered with status >= 400, fleet-wide.", float64(v.Fleet.RequestErrors))
	e.Counter("seagull_fleet_pool_hits_total", "Warm-pool hits, fleet-wide.", float64(v.Fleet.PoolHits))
	e.Counter("seagull_fleet_pool_misses_total", "Warm-pool misses, fleet-wide.", float64(v.Fleet.PoolMisses))
	e.Counter("seagull_fleet_drift_drifted_total", "Stored predictions found drifted, fleet-wide.", float64(v.Fleet.Drifted))
	e.Counter("seagull_fleet_refresh_refreshed_total", "Predictions retrained and republished, fleet-wide.", float64(v.Fleet.Refreshed))
	e.Counter("seagull_fleet_wal_commits_total", "WAL commit cycles, fleet-wide.", float64(v.Fleet.WALCommits))
	e.Counter("seagull_fleet_wal_records_total", "Telemetry records committed to WALs, fleet-wide.", float64(v.Fleet.WALRecords))
	e.Counter("seagull_fleet_snapshots_total", "Incremental snapshots taken, fleet-wide.", float64(v.Fleet.Snapshots))

	return e.Flush()
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ExpoContentType)
	_ = rt.WriteMetrics(r.Context(), w)
}
