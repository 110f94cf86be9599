package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seagull/internal/forecast"
	"seagull/internal/registry"
	"seagull/internal/timeseries"
)

var t0 = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)

func testServer(t *testing.T) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New(nil)
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	return srv, reg
}

func weekHistory() timeseries.Series {
	vals := make([]float64, 7*288)
	for i := range vals {
		if i%288 >= 96 && i%288 < 192 {
			vals[i] = 60
		} else {
			vals[i] = 10
		}
	}
	return timeseries.New(t0, 5*time.Minute, vals)
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	c := NewClient(srv.URL)
	if !c.Healthy() {
		t.Error("endpoint should be healthy")
	}
}

func TestPredictEndToEnd(t *testing.T) {
	srv, reg := testServer(t)
	reg.Deploy(registry.Target{Scenario: "backup", Region: "westus"}, forecast.NamePersistentPrevDay, "")

	c := NewClient(srv.URL)
	hist := weekHistory()
	resp, err := c.PredictV2(context.Background(), PredictRequestV2{
		Scenario: "backup", Region: "westus", History: FromSeries(hist), Horizon: 288,
	})
	if err != nil {
		t.Fatal(err)
	}
	pred := resp.Forecast.ToSeries()
	if resp.Model != forecast.NamePersistentPrevDay || resp.Version != 1 {
		t.Errorf("resp = %+v", resp)
	}
	if pred.Len() != 288 {
		t.Fatalf("forecast len = %d", pred.Len())
	}
	// Persistent prev-day forecast equals the last history day.
	last, _ := hist.Day(6)
	for i := range pred.Values {
		if pred.Values[i] != last.Values[i] {
			t.Fatalf("forecast differs from last day at %d", i)
		}
	}
	if !pred.Start.Equal(hist.End()) {
		t.Errorf("forecast start = %v", pred.Start)
	}
}

func TestPredictNoDeployment(t *testing.T) {
	srv, _ := testServer(t)
	c := NewClient(srv.URL)
	_, err := c.PredictV2(context.Background(), PredictRequestV2{
		Scenario: "backup", Region: "nowhere", History: FromSeries(weekHistory()), Horizon: 288,
	})
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("err = %v, want 404", err)
	}
}

func TestPredictValidation(t *testing.T) {
	srv, reg := testServer(t)
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v2/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("bad json status = %d", code)
	}
	if code := post(`{"scenario":"backup","region":"r","horizon":0,
		"history":{"start":"2019-12-01T00:00:00Z","interval_min":5,"values":[1]}}`); code != http.StatusBadRequest {
		t.Errorf("zero horizon status = %d", code)
	}
	if code := post(`{"scenario":"backup","region":"r","horizon":10,
		"history":{"start":"2019-12-01T00:00:00Z","interval_min":0,"values":[1]}}`); code != http.StatusBadRequest {
		t.Errorf("zero interval status = %d", code)
	}
	// Insufficient history → unprocessable.
	req := PredictRequestV2{
		Scenario: "backup", Region: "r", Horizon: 288,
		History: SeriesJSON{Start: t0, IntervalMin: 5, Values: []float64{1, 2, 3}},
	}
	data, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v2/predict", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("short history status = %d", resp.StatusCode)
	}
}

func TestModelsListing(t *testing.T) {
	srv, reg := testServer(t)
	c := NewClient(srv.URL)
	ctx := context.Background()
	listing, err := c.ModelsV2(ctx)
	if err != nil || len(listing.Models) != 0 {
		t.Errorf("empty registry: %v %v", listing.Models, err)
	}

	tgt := registry.Target{Scenario: "backup", Region: "westus"}
	v := reg.Deploy(tgt, forecast.NamePersistentPrevDay, "")
	_ = reg.RecordAccuracy(tgt, v, 0.99)
	reg.Deploy(registry.Target{Scenario: "autoscale", Region: "eastus"}, forecast.NameSSA, "")

	listing, err = c.ModelsV2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	models := listing.Models
	if len(models) != 2 {
		t.Fatalf("models = %+v", models)
	}
	// Sorted by target string: autoscale/eastus first.
	if models[0].Scenario != "autoscale" || models[0].Model != forecast.NameSSA {
		t.Errorf("models[0] = %+v", models[0])
	}
	if models[1].Accuracy != 0.99 {
		t.Errorf("models[1] = %+v", models[1])
	}
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	s := timeseries.New(t0, 5*time.Minute, []float64{1, 2, 3})
	got := FromSeries(s).ToSeries()
	if !got.Start.Equal(s.Start) || got.Interval != s.Interval || got.Len() != 3 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/v2/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/predict status = %d", resp.StatusCode)
	}
}

func TestUnknownDeployedModel(t *testing.T) {
	srv, reg := testServer(t)
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, "no-such-model", "")
	c := NewClient(srv.URL)
	_, err := c.PredictV2(context.Background(), PredictRequestV2{
		Scenario: "backup", Region: "r", History: FromSeries(weekHistory()), Horizon: 288,
	})
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("err = %v, want 500", err)
	}
}
