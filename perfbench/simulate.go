package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"seagull/internal/simworkload"
)

// simulate: simworkload.Run replays of the built-in single-replica smoke
// scenario (burst storm, drift injection, brownout) on the simulated clock,
// each with its own seed derived from the benchmark's. Every replay warms up
// (fleet, extracts, pipeline weeks, ring prefeed) before it replays, and
// that warm-up is the set-up time.
const (
	simScenario = "smoke"
	// simHours replays three simulated days: the detector judges drift only
	// on a server's predicted backup day, and three days make it near
	// certain that some drifted server's backup day falls after the
	// injection, whatever the seed (the scenario's own six hours leave the
	// drift unjudged for most seeds).
	simHours = 72
	// simProbeHours is the replay length of the extra set-ups that make
	// setup_s a median: the warm-up does not depend on the replay length
	// below a week.
	simProbeHours = 1
)

// simReplay is one simworkload.Run's measurements. hours and hourCPU hold
// the wall and process CPU time of each simulated hour, from the harness's
// hourly progress log.
type simReplay struct {
	warmup  time.Duration
	replay  time.Duration
	hours   []time.Duration
	hourCPU []time.Duration
	steals  []float64 // host CPU steal share during each hour
	allocs  uint64
	report  simworkload.SLOReport
	rows    []simworkload.Row
}

func runSimulate(b *bench, cfg passCfg) (*passOut, error) {
	out := newPassOut()
	sc, ok := simworkload.Builtin(simScenario)
	if !ok {
		return nil, fmt.Errorf("no built-in scenario %q", simScenario)
	}
	var warm []float64
	for i := 1; i < cfg.setups; i++ {
		rp, err := simulateOnce(b, sc, b.seed*1000+500+int64(i), simProbeHours, nil)
		if err != nil {
			return nil, err
		}
		warm = append(warm, rp.warmup.Seconds())
	}

	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	rss := startRSS()
	rt := readRuntime()
	var reps []simReplay
	t0 := time.Now()
	for len(reps) == 0 || time.Since(t0).Seconds() < cfg.seconds {
		rp, err := simulateOnce(b, sc, b.seed*1000+int64(len(reps)), simHours, rec)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rp)
	}
	allocs, gc := rt.since(len(reps))
	out.e2e["peak_rss_mb"] = rss.finish()

	var hourRates, hourCPURates, hourSteals, replayRates, p50s, p99s, allocsPerHour []float64
	issued, failed := 0, 0
	var trains, memo uint64
	for _, rp := range reps {
		rep := rp.report
		p := rep.Predicts
		b.check(p.Issued == p.OK+p.Degraded+p.Shed+p.Failed, "simulate: %d issued predicts, %d accounted for", p.Issued, p.OK+p.Degraded+p.Shed+p.Failed)
		b.check(p.Failed == 0, "simulate: %d predicts failed", p.Failed)
		b.check(len(rep.DriftLag) > 0, "simulate: scenario injected no drift")
		for _, d := range rep.DriftLag {
			b.check(d.LagHours >= 0, "simulate: drift injected at hour %.1f was never detected", d.AtHour)
		}
		b.check(len(rp.hours) == simHours, "simulate: %d hourly progress lines for %d hours", len(rp.hours), simHours)
		issued += int(p.Issued)
		failed += int(p.Shed + p.Failed)
		warm = append(warm, rp.warmup.Seconds())
		for k, h := range rp.hours {
			hourRates = append(hourRates, 1/h.Seconds())
			hourCPURates = append(hourCPURates, 1/rp.hourCPU[k].Seconds())
		}
		hourSteals = append(hourSteals, rp.steals...)
		replayRates = append(replayRates, rep.SimHours/rp.replay.Seconds())
		p50s = append(p50s, p.P50ms)
		p99s = append(p99s, p.P99ms)
		allocsPerHour = append(allocsPerHour, float64(rp.allocs)/rep.SimHours)
		if n := len(rp.rows); n > 0 {
			trains += rp.rows[n-1].RefreshTrains
			memo += rp.rows[n-1].RefreshMemoHits
		}
	}
	out.e2e["setup_s"] = median(warm)
	out.e2e["p50_ms"] = median(p50s)
	out.e2e["rate_per_cpu_s"] = quietMedian(hourCPURates, hourSteals)
	out.attempted = issued
	out.failed = failed

	out.name("setup_s", out.e2e["setup_s"], "s", len(warm))
	out.name("peak_rss_mb", out.e2e["peak_rss_mb"], "MiB", 1)
	out.name("failed_ratio", ratio(float64(failed), float64(issued)), "ratio", issued)
	out.name("sim_hours_per_s", quietMedian(hourRates, hourSteals), "sim-h/s", len(hourRates))
	out.name("sim_hours_per_cpu_s", out.e2e["rate_per_cpu_s"], "sim-h/cpu-s", len(hourCPURates))
	out.name("sim_hours_per_s_all_hours", median(hourRates), "sim-h/s", len(hourRates))
	out.name("sim_hours_per_cpu_s_all_hours", median(hourCPURates), "sim-h/cpu-s", len(hourCPURates))
	out.name("sim_hours_per_s_whole_replay", median(replayRates), "sim-h/s", len(reps))
	out.name("sim_predict_p50_ms", out.e2e["p50_ms"], "ms", issued)
	out.name("sim_predict_p99_ms", median(p99s), "ms", issued)

	l := out.layer
	l["e2e.p99_ms"] = median(p99s)
	l["go.allocs_per_op"] = allocs
	l["go.gc_cpu_fraction"] = gc
	l["sim.warmup_s"] = median(warm)
	l["sim.allocs_per_sim_hour"] = median(allocsPerHour)
	// Memo hits depend on goroutine scheduling on multi-core hosts, so they
	// are a count, never compared bit for bit.
	l["sim.refresh_trains"] = float64(trains)
	l["sim.refresh_memo_hits"] = float64(memo)
	if cfg.traced {
		fillSimLayers(out, reps)
		out.spans = rec.all()
	}
	return out, nil
}

// fillSimLayers reads the layers the SLO reports export: the serving-side
// stage aggregates of the harness's wall-clock tracer and the stream
// counters, summed over the pass's replays.
func fillSimLayers(out *passOut, reps []simReplay) {
	l := out.layer
	type agg struct {
		count, hits uint64
		totalMs     float64
	}
	stages := map[string]*agg{}
	for _, rp := range reps {
		rep := rp.report
		for _, st := range rep.Stages {
			a := stages[st.Stage]
			if a == nil {
				a = &agg{}
				stages[st.Stage] = a
			}
			a.count += st.Count
			a.hits += st.Hits
			a.totalMs += st.TotalMs
		}
		l["stream.appended"] += float64(rep.Ingest.Appended)
		l["stream.duplicates"] += float64(rep.Ingest.Duplicates)
		l["stream.rejected"] += float64(rep.Ingest.TooOld + rep.Ingest.TooNew + rep.Ingest.BadValues)
		l["drift.drifted"] += float64(rep.Sweeper.Drifted)
		l["refresh.refreshed"] += float64(rep.Refresh.Refreshed)
		l["refresh.coalesced"] += float64(rep.Refresh.Coalesced)
		l["refresh.dropped"] += float64(rep.Refresh.Dropped)
		l["wal.commits"] += float64(rep.Durability.Commits)
		l["wal.snapshots"] += float64(rep.Durability.Snapshots)
	}
	mean := func(name string) float64 {
		if a := stages[name]; a != nil {
			return ratio(a.totalMs, float64(a.count))
		}
		return 0
	}
	hitRatio := func(name string) float64 {
		if a := stages[name]; a != nil {
			return ratio(float64(a.hits), float64(a.count))
		}
		return 0
	}
	l["admission.wait_ms"] = mean("admission")
	l["pool.hit_ratio"] = hitRatio("checkout")
	l["forecast.train_ms"] = mean("train")
	l["forecast.infer_ms"] = mean("inference")
	l["forecast.memo_hit_ratio"] = hitRatio("train")
}

// simulateOnce runs one replay of hours simulated hours. The harness logs
// warm-up completion and every simulated hour; the replay is timed from the
// warm-up line, so warm-up and prefeed stay out of the simulated-hours
// rate, and each hour is timed from the line before it.
func simulateOnce(b *bench, sc simworkload.Scenario, seed int64, hours float64, rec *recorder) (simReplay, error) {
	dir, err := b.scratch("sim")
	if err != nil {
		return simReplay{}, err
	}
	var mu sync.Mutex
	var warmEnd, last time.Time
	var warmMallocs uint64
	var perHour, perHourCPU []time.Duration
	var lastCPU time.Duration
	var steals []float64
	var steal stealMark
	start := time.Now()
	res, err := simworkload.Run(context.Background(), sc, simworkload.Options{
		Dir:            dir,
		Seed:           seed,
		Hours:          hours,
		IngestWorkers:  b.nproc,
		PredictWorkers: b.nproc,
		Logf: func(format string, _ ...any) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case strings.HasPrefix(format, "warmup done"):
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				warmEnd, last, warmMallocs = now, now, ms.Mallocs
				lastCPU = processCPU()
				steal = markSteal()
			case strings.HasPrefix(format, "sim %.0fh / "):
				perHour = append(perHour, now.Sub(last))
				cpu := processCPU()
				perHourCPU = append(perHourCPU, cpu-lastCPU)
				lastCPU = cpu
				steals = append(steals, steal.since())
				steal = markSteal()
				last = now
			}
		},
	})
	end := time.Now()
	if err != nil {
		return simReplay{}, fmt.Errorf("simworkload.Run: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mu.Lock()
	defer mu.Unlock()
	if warmEnd.IsZero() {
		return simReplay{}, fmt.Errorf("simworkload.Run reported no warm-up")
	}
	root := rec.newID()
	rec.record("simworkload.warmup", "", root, start, warmEnd)
	rec.record("simworkload.replay", "", root, warmEnd, end)
	rec.recordID(root, "simworkload.Run", start, end)
	return simReplay{
		warmup:  warmEnd.Sub(start),
		replay:  end.Sub(warmEnd),
		hours:   perHour,
		hourCPU: perHourCPU,
		steals:  steals,
		allocs:  ms.Mallocs - warmMallocs,
		report:  res.Report,
		rows:    res.Rows,
	}, nil
}
