package router

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"seagull/internal/serving"
)

// This file holds the traffic-bearing routes: predict relayed to its owner,
// batch/ingest split across shards and merged, stored predictions fanned out
// and unioned, and the stateless round-robin relays.

// predictKeys is all of a predict body the router reads: the owner key and
// the flag that pins a request to it. The rest passes through undecoded.
type predictKeys struct {
	ServerID    string `json:"server_id"`
	LiveHistory bool   `json:"live_history"`
}

// handlePredict relays one predict to the owner of its server ID. A request
// without a server ID carries its own history and is stateless — any replica
// serves it identically, so it round-robins with failover.
func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var keys predictKeys
	if err := json.Unmarshal(body, &keys); err != nil {
		serving.WriteError(w, http.StatusBadRequest, serving.CodeBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if keys.ServerID == "" && keys.LiveHistory {
		serving.WriteError(w, http.StatusBadRequest, serving.CodeBadRequest,
			"live_history requires server_id: the live window lives on the owning replica")
		return
	}
	rt.relay(w, r, http.MethodPost, "/v2/predict", body, keys.ServerID)
}

// handleBatch splits a batch by item owner, fans the sub-batches out
// concurrently, and merges per-item results back in request order. A replica
// failure fails only the items it owned — the other shards' results are
// unaffected.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req serving.BatchRequest
	if !rt.decode(w, r, &req) {
		return
	}
	if len(req.Servers) == 0 {
		serving.WriteError(w, http.StatusBadRequest, serving.CodeBadRequest, "batch must contain at least one server")
		return
	}
	for i := range req.Servers {
		if req.Servers[i].ServerID == "" {
			serving.WriteError(w, http.StatusBadRequest, serving.CodeBadRequest,
				"servers["+strconv.Itoa(i)+"]: server_id is required")
			return
		}
	}
	smap, clients := rt.view()
	ids := make([]string, len(req.Servers))
	for i := range req.Servers {
		ids[i] = req.Servers[i].ServerID
	}
	parts := smap.Split(ids)

	out := serving.BatchResponse{Results: make([]serving.BatchItemResult, len(req.Servers))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, idxs := range parts {
		wg.Add(1)
		go func(name string, idxs []int) {
			defer wg.Done()
			sub := serving.BatchRequest{
				Scenario: req.Scenario,
				Region:   req.Region,
				Servers:  make([]serving.BatchItem, len(idxs)),
			}
			for j, i := range idxs {
				sub.Servers[j] = req.Servers[i]
			}
			resp, err := clients[name].PredictBatch(r.Context(), sub)
			rt.observeForward(name, err)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				body := upstreamErrorBody(name, err)
				for _, i := range idxs {
					out.Results[i] = serving.BatchItemResult{
						ServerID: req.Servers[i].ServerID, LLStart: -1, Error: body,
					}
				}
				out.Failed += len(idxs)
				return
			}
			if out.Model == "" {
				out.Model, out.Version = resp.Model, resp.Version
			}
			for j, i := range idxs {
				if j < len(resp.Results) {
					out.Results[i] = resp.Results[j]
				}
			}
			out.Succeeded += resp.Succeeded
			out.Failed += resp.Failed
		}(name, idxs)
	}
	wg.Wait()
	serving.WriteJSON(w, http.StatusOK, out)
}

// handleIngest splits the batch's series and points by owner, broadcasts the
// optional sweep clause to every replica (each sweeps its own ring), fans
// out concurrently, and sums the tallies. Appends are idempotent on every
// replica, so a client that sees an error from a partially-applied fan-out
// simply re-sends the whole batch.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req serving.IngestRequest
	if !rt.decode(w, r, &req) {
		return
	}
	smap, clients := rt.view()
	names := smap.Replicas()
	subs := make(map[string]*serving.IngestRequest, len(names))
	sub := func(name string) *serving.IngestRequest {
		s, ok := subs[name]
		if !ok {
			s = &serving.IngestRequest{Sweep: req.Sweep}
			subs[name] = s
		}
		return s
	}
	for i := range req.Servers {
		sr := &req.Servers[i]
		if sr.ServerID == "" {
			serving.WriteError(w, http.StatusBadRequest, serving.CodeBadRequest,
				"servers["+strconv.Itoa(i)+"]: server_id is required")
			return
		}
		s := sub(smap.Owner(sr.ServerID))
		s.Servers = append(s.Servers, *sr)
	}
	for i := range req.Points {
		p := &req.Points[i]
		if p.ServerID == "" {
			serving.WriteError(w, http.StatusBadRequest, serving.CodeBadRequest,
				"points["+strconv.Itoa(i)+"]: server_id is required")
			return
		}
		s := sub(smap.Owner(p.ServerID))
		s.Points = append(s.Points, *p)
	}
	if req.Sweep != nil {
		// The sweep must cover every shard, including those this batch
		// carried no points for.
		for _, name := range names {
			sub(name)
		}
	}
	if len(subs) == 0 {
		serving.WriteError(w, http.StatusBadRequest, serving.CodeBadRequest, "ingest batch must contain at least one point")
		return
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	var merged serving.IngestResponse
	var firstErr error
	var firstErrName string
	for name, s := range subs {
		wg.Add(1)
		go func(name string, s *serving.IngestRequest) {
			defer wg.Done()
			resp, err := clients[name].Ingest(r.Context(), *s)
			rt.observeForward(name, err)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr, firstErrName = err, name
				}
				return
			}
			merged.Accepted += resp.Accepted
			merged.Duplicates += resp.Duplicates
			merged.TooOld += resp.TooOld
			merged.TooNew += resp.TooNew
			merged.BadValues += resp.BadValues
			merged.Skipped += resp.Skipped
			if resp.Sweep != nil {
				if merged.Sweep == nil {
					merged.Sweep = &serving.SweepResult{
						Region: resp.Sweep.Region, Week: resp.Sweep.Week,
					}
				}
				merged.Sweep.Checked += resp.Sweep.Checked
				merged.Sweep.Drifted += resp.Sweep.Drifted
				merged.Sweep.Skipped += resp.Sweep.Skipped
				merged.Sweep.Queued += resp.Sweep.Queued
				merged.Sweep.Dropped += resp.Sweep.Dropped
				merged.Sweep.Servers = append(merged.Sweep.Servers, resp.Sweep.Servers...)
			}
		}(name, s)
	}
	wg.Wait()
	if firstErr != nil {
		// Idempotent appends make the whole batch safe to re-send; failing
		// loudly beats acknowledging points a dead replica never saw.
		writeUpstream(w, firstErrName, firstErr)
		return
	}
	if merged.Sweep != nil {
		sort.Strings(merged.Sweep.Servers)
	}
	serving.WriteJSON(w, http.StatusOK, merged)
}

// handlePredictions fans the stored-prediction query out to every replica
// and merges by server ID: replicas share a region's document store but a
// refresher republishes only its own shard, so the union is the fleet view.
func (rt *Router) handlePredictions(w http.ResponseWriter, r *http.Request) {
	region := r.PathValue("region")
	week, err := strconv.Atoi(r.PathValue("week"))
	if err != nil || region == "" {
		serving.WriteError(w, http.StatusBadRequest, serving.CodeBadRequest, "path must be /v2/predictions/{region}/{week}")
		return
	}
	smap, clients := rt.view()
	names := smap.Replicas()
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	var firstErrName string
	merged := serving.PredictionsResponse{Region: region, Week: week}
	seen := map[string]bool{}
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			resp, err := clients[name].Predictions(r.Context(), region, week)
			rt.observeForward(name, err)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr, firstErrName = err, name
				}
				return
			}
			for _, doc := range resp.Predictions {
				if doc != nil && !seen[doc.ServerID] {
					seen[doc.ServerID] = true
					merged.Predictions = append(merged.Predictions, doc)
				}
			}
		}(name)
	}
	wg.Wait()
	if firstErr != nil && len(merged.Predictions) == 0 {
		writeUpstream(w, firstErrName, firstErr)
		return
	}
	sort.Slice(merged.Predictions, func(i, j int) bool {
		return merged.Predictions[i].ServerID < merged.Predictions[j].ServerID
	})
	serving.WriteJSON(w, http.StatusOK, merged)
}

// forward builds a stateless pass-through handler: a POST body relays
// unchanged, a GET carries none.
func (rt *Router) forward(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if r.Method == http.MethodPost {
			var ok bool
			if body, ok = rt.readBody(w, r); !ok {
				return
			}
		}
		rt.relay(w, r, r.Method, path, body, "")
	}
}

// relay is the router's one forward path. It sends body (nil: none) to a
// replica unchanged and writes the replica's 200 reply back byte for byte.
// With a server ID the request goes to the owner alone, whose client
// retries through a drain. Without one it round-robins and fails over to
// the next replica on a retryable error. An error answer is translated by
// writeUpstream.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, method, path string, body []byte, serverID string) {
	var skip map[string]bool
	var lastName string
	var lastErr error
	for {
		var name string
		var client *serving.Client
		if serverID != "" {
			name, client = rt.ownerClient(serverID)
		} else if name, client = rt.nextClient(skip); client == nil {
			break
		}
		reply, err := client.Do(r.Context(), method, path, body)
		rt.observeForward(name, err)
		if err == nil {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(reply)
			return
		}
		lastName, lastErr = name, err
		// Only the owner can answer for its server, and a definitive answer
		// (bad request, not found) is one every replica would give.
		var api *serving.APIError
		definitive := errors.As(err, &api) && api.Status < 500 && api.Status != http.StatusTooManyRequests
		if serverID != "" || definitive {
			break
		}
		if skip == nil {
			skip = map[string]bool{}
		}
		skip[name] = true
	}
	writeUpstream(w, lastName, lastErr)
}
