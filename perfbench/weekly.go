package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"seagull"
	"seagull/internal/extract"
	"seagull/internal/forecast"
	"seagull/internal/insights"
	"seagull/internal/pipeline"
	"seagull/internal/simulate"
	"seagull/internal/timeseries"
)

// weekly-batch: the batch path. Each cycle lands one week's extract in the
// lake, runs the weekly pipeline with the production persistent forecast
// and schedules the week's backups. Router, serving and stream are idle.
const (
	weeklyServers = 200
	// weeklyFirst weeks run in set-up, so Definition 9 predictability has
	// three weeks of history when the timed cycles start.
	weeklyFirst = 3
	weeklyWeeks = 6 // timed cycles go round weeks weeklyFirst..weeklyWeeks-1
	weeklyMin   = 6 // cycles a pass runs at least, whatever its time share
)

// weeklyStages maps the pipeline's stage timings to per-layer metrics.
var weeklyStages = map[string]string{
	pipeline.StageIngestion:  "pipeline.ingestion_s",
	pipeline.StageValidation: "pipeline.validation_s",
	pipeline.StageFeatures:   "pipeline.features_s",
	pipeline.StageTrainInfer: "pipeline.train_infer_s",
	pipeline.StageAccuracy:   "pipeline.accuracy_s",
}

// weeklyCycle is one timed cycle's measurements.
type weeklyCycle struct {
	week      int
	total     time.Duration
	extract   time.Duration
	run       time.Duration
	schedule  time.Duration
	stages    []insights.StageTiming
	servers   int
	predicted int
	allocs    uint64
	steal     float64       // host CPU steal share during the cycle
	cpu       time.Duration // process CPU time during the cycle
}

func runWeeklyBatch(b *bench, cfg passCfg) (*passOut, error) {
	out := newPassOut()
	var sys *seagull.System
	var fleet *simulate.Fleet
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			_ = sys.Close()
		}
		t := time.Now()
		var err error
		sys, fleet, err = setupWeekly(b)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer sys.Close()

	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	ctx := context.Background()
	pcfg := pipeline.Config{Region: region, ModelName: forecast.NamePersistentPrevDay, Workers: b.nproc, Seed: b.seed}
	rss := startRSS()
	rt := readRuntime()
	var cycles []weeklyCycle
	t0 := time.Now()
	for len(cycles) < weeklyMin || time.Since(t0).Seconds() < cfg.seconds {
		c := weeklyCycle{week: weeklyFirst + len(cycles)%(weeklyWeeks-weeklyFirst)}
		pcfg.Week = c.week
		start := time.Now()
		steal := markSteal()
		cpu := processCPU()
		root := rec.newID()
		var err error
		c.extract, err = rec.time("extract.ExtractWeek", root, func() error {
			_, err := extract.ExtractWeek(sys.Lake, fleet, c.week)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("extract week %d: %w", c.week, err)
		}
		var res *pipeline.Result
		var before runtime.MemStats
		if cfg.traced {
			runtime.ReadMemStats(&before)
		}
		runStart := time.Now()
		c.run, err = rec.time("pipeline.RunWeek", root, func() error {
			res, err = sys.Pipeline.RunWeek(ctx, pcfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("run week %d: %w", c.week, err)
		}
		if cfg.traced {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			c.allocs = after.Mallocs - before.Mallocs
			// The stage timings become child spans, laid end to end.
			at := runStart
			for _, st := range res.StageTimings {
				rec.record("pipeline."+st.Stage, "", root, at, at.Add(st.Duration))
				at = at.Add(st.Duration)
			}
		}
		var decisions []seagull.Decision
		c.schedule, err = rec.time("System.ScheduleBackups", root, func() error {
			decisions, err = sys.ScheduleBackups(region, c.week)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("schedule week %d: %w", c.week, err)
		}
		end := time.Now()
		c.total = end.Sub(start)
		c.steal = steal.since()
		c.cpu = processCPU() - cpu
		rec.recordID(root, "weekly.cycle", start, end)
		c.stages = res.StageTimings
		c.servers = res.Servers
		c.predicted = res.Predicted
		b.check(res.Predicted > 0, "week %d: no predictions", c.week)
		stored := countPredictions(sys, c.week)
		b.check(len(decisions) == stored, "week %d: %d decisions for %d stored predictions", c.week, len(decisions), stored)
		cycles = append(cycles, c)
	}
	allocs, gc := rt.since(len(cycles))
	out.e2e["peak_rss_mb"] = rss.finish()
	checkWeeklyDocs(b, sys, fleet)

	var totals, rates, cpuRates, steals []float64
	for _, c := range cycles {
		totals = append(totals, ms(c.total))
		rates = append(rates, float64(c.servers)/c.total.Seconds())
		cpuRates = append(cpuRates, float64(c.servers)/c.cpu.Seconds())
		steals = append(steals, c.steal)
	}
	_, p90 := percentiles(append([]float64(nil), totals...), 0.9)
	out.e2e["setup_s"] = median(setups)
	out.e2e["p50_ms"] = quietMedian(totals, steals)
	out.e2e["rate_per_cpu_s"] = quietMedian(cpuRates, steals)
	out.attempted = len(cycles)

	out.name("setup_s", out.e2e["setup_s"], "s", len(setups))
	out.name("peak_rss_mb", out.e2e["peak_rss_mb"], "MiB", 1)
	out.name("failed_ratio", 0, "ratio", len(cycles))
	out.name("weekly_run_s", out.e2e["p50_ms"]/1000, "s", len(cycles))
	out.name("weekly_run_p90_s", p90/1000, "s", len(cycles))
	out.name("servers_per_s", quietMedian(rates, steals), "servers/s", len(cycles))
	out.name("servers_per_cpu_s", out.e2e["rate_per_cpu_s"], "servers/cpu-s", len(cycles))
	out.name("weekly_run_s_all_cycles", median(totals)/1000, "s", len(cycles))
	out.name("servers_per_cpu_s_all_cycles", median(cpuRates), "servers/cpu-s", len(cycles))

	l := out.layer
	l["e2e.p99_ms"] = p90 // too few cycles for a p99: the tail here is p90
	l["go.allocs_per_op"] = allocs
	l["go.gc_cpu_fraction"] = gc
	if cfg.traced {
		fillWeeklyLayers(b, out, sys, cycles, rec)
		out.spans = rec.all()
	}
	return out, nil
}

// setupWeekly generates the fleet and runs its first weeks end to end.
func setupWeekly(b *bench) (*seagull.System, *simulate.Fleet, error) {
	dir, err := b.scratch("weekly")
	if err != nil {
		return nil, nil, err
	}
	sys, err := seagull.NewSystem(seagull.SystemConfig{DataDir: dir})
	if err != nil {
		return nil, nil, err
	}
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: region, Servers: weeklyServers, Weeks: weeklyWeeks, Interval: slot, Seed: b.seed,
	})
	for wk := 0; wk < weeklyFirst; wk++ {
		if _, err := extract.ExtractWeek(sys.Lake, fleet, wk); err != nil {
			sys.Close()
			return nil, nil, err
		}
		if _, err := sys.Pipeline.RunWeek(context.Background(), pipeline.Config{
			Region: region, Week: wk, Workers: b.nproc, Seed: b.seed,
		}); err != nil {
			sys.Close()
			return nil, nil, err
		}
		if _, err := sys.ScheduleBackups(region, wk); err != nil {
			sys.Close()
			return nil, nil, err
		}
	}
	return sys, fleet, nil
}

func countPredictions(sys *seagull.System, week int) int {
	n := 0
	suffix := fmt.Sprintf("/week-%04d", week)
	for _, id := range sys.DB.Collection("predictions").IDs(region) {
		if len(id) > len(suffix) && id[len(id)-len(suffix):] == suffix {
			n++
		}
	}
	return n
}

// checkWeeklyDocs recomputes sampled stored predictions of every timed week
// in-process: the persistent forecast over up to seven whole days of the
// lake's extract immediately before the backup day.
func checkWeeklyDocs(b *bench, sys *seagull.System, fleet *simulate.Fleet) {
	for wk := weeklyFirst; wk < weeklyWeeks; wk++ {
		hist := map[string][]*extract.ServerLoad{}
		for w := wk - 1; w <= wk; w++ {
			loads, err := extract.Ingest(sys.Lake, region, w, slot)
			if err != nil {
				b.check(false, "ingest week %d: %v", w, err)
				return
			}
			for _, sl := range loads {
				hist[sl.ServerID] = append(hist[sl.ServerID], sl)
			}
		}
		checked := 0
		for _, srv := range fleet.Servers {
			if checked == 8 {
				break
			}
			parts := hist[srv.ID]
			if srv.ShortLived || len(parts) != 2 {
				continue
			}
			var doc pipeline.PredictionDoc
			if err := sys.DB.Collection("predictions").Get(region, fmt.Sprintf("%s/week-%04d", srv.ID, wk), &doc); err != nil {
				continue
			}
			vals := append(append([]float64(nil), parts[0].Load.Values...), parts[1].Load.Values...)
			series := timeseries.New(parts[0].Load.Start, slot, vals)
			dayIdx, ok := series.IndexOf(doc.BackupDay)
			if !ok || dayIdx < 7*ppd {
				continue
			}
			h, err := series.Slice(dayIdx-7*ppd, dayIdx)
			if err != nil {
				continue
			}
			pred, err := forecast.PredictDay(forecast.NewPersistent(forecast.PrevDay), h)
			if err != nil {
				b.check(false, "reference forecast %s: %v", srv.ID, err)
				continue
			}
			b.check(digest(pred.Values) == digest(doc.Values), "week %d: stored prediction for %s differs from the reference forecast", wk, srv.ID)
			checked++
		}
		b.check(checked > 0, "week %d: no stored prediction could be checked", wk)
	}
}

// fillWeeklyLayers derives the pipeline, extract, lake, scheduler and
// cosmos rows, and checks that the stage times account for the cycle.
func fillWeeklyLayers(b *bench, out *passOut, sys *seagull.System, cycles []weeklyCycle, rec *recorder) {
	l := out.layer
	stageVals := map[string][]float64{}
	var extracts, schedules, totals, ratios, allocs, sums []float64
	for _, c := range cycles {
		stageSum := 0.0
		for _, st := range c.stages {
			stageSum += st.Duration.Seconds()
			if name, ok := weeklyStages[st.Stage]; ok {
				stageVals[name] = append(stageVals[name], st.Duration.Seconds())
			}
		}
		extracts = append(extracts, c.extract.Seconds())
		schedules = append(schedules, c.schedule.Seconds())
		totals = append(totals, c.total.Seconds())
		ratios = append(ratios, ratio(float64(c.predicted), float64(c.servers)))
		allocs = append(allocs, float64(c.allocs))
		sums = append(sums, stageSum+c.extract.Seconds()+c.schedule.Seconds())
	}
	for name, v := range stageVals {
		l[name] = median(v)
	}
	l["extract.week_s"] = median(extracts)
	l["scheduler.week_s"] = median(schedules)
	l["pipeline.predicted_ratio"] = median(ratios)
	l["pipeline.allocs_per_run"] = median(allocs)
	acct := sum(sums) / sum(totals)
	l["acct.weekly_stage_sum_ratio"] = acct
	b.check(acct > 0.95 && acct < 1.05, "weekly-batch: stage times sum to %.3f of the cycle time", acct)

	// The pipeline reads the run week plus its history weeks from the lake.
	var read int64
	for w := weeklyWeeks - 1 - 3; w < weeklyWeeks; w++ {
		if n, err := sys.Lake.Size(extract.Dataset, region, w); err == nil {
			read += n
		}
	}
	l["lake.bytes_read_per_run"] = float64(read)

	// Upsert cost: re-store sampled documents into a scratch collection.
	col := sys.DB.Collection("predictions")
	scratch := sys.DB.Collection("perfbench-upserts")
	var total time.Duration
	n := 0
	for _, id := range col.IDs(region) {
		if n == 200 {
			break
		}
		var doc json.RawMessage
		if col.Get(region, id, &doc) != nil {
			continue
		}
		d, err := rec.time("cosmos.Upsert", 0, func() error { return scratch.Upsert(region, id, doc) })
		b.check(err == nil, "cosmos upsert: %v", err)
		total += d
		n++
	}
	l["cosmos.upsert_ms"] = ratio(ms(total), float64(n))
}
