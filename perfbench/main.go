// Command perfbench is Seagull's end-to-end benchmark. It builds the system
// in-process from its public constructors, drives one seeded workload,
// checks every output, and prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// every tracer off. With --trace 1 the run repeats the workload untraced,
// traced and (for ingest-refresh and weekly-batch) traced at GOMAXPROCS=1,
// and the result carries the per-layer metrics. README.md lists the
// workloads, the metrics and which layer should move which metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one seeded traffic mix. pass runs it once: set-up (repeated
// cfg.setups times, the last world kept), the timed phases, and the output
// checks. Why each workload exists is in README.md and BENCHMARK.json.
type workload struct {
	name string
	pass func(b *bench, cfg passCfg) (*passOut, error)
	// gmp1 marks the workloads whose traced pass is repeated at
	// GOMAXPROCS=1 for the single-core baseline.
	gmp1 bool
}

var workloads = []workload{
	{name: "predict-routed", pass: runPredictRouted},
	{name: "ingest-refresh", pass: runIngestRefresh, gmp1: true},
	{name: "weekly-batch", pass: runWeeklyBatch, gmp1: true},
	{name: "simulate", pass: runSimulate},
}

// passCfg parameterizes one pass over a workload.
type passCfg struct {
	seconds float64
	traced  bool
	setups  int
}

// passOut is what one pass measured. e2e holds the end-to-end slots (see
// e2eSlots), layer the per-layer metrics, named the workload's own figures
// printed for people (predict_p99_ms, refresh_lag_p50_ms, ...).
type passOut struct {
	e2e       map[string]float64
	layer     map[string]float64
	named     []namedValue
	attempted int
	failed    int
	spans     []span
}

// namedValue is one human-readable figure: name, value, unit, sample count.
type namedValue struct {
	name    string
	value   float64
	unit    string
	samples int
}

func newPassOut() *passOut {
	return &passOut{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *passOut) name(name string, v float64, unit string, samples int) {
	o.named = append(o.named, namedValue{name, v, unit, samples})
}

// bench is one invocation's state: flags, scratch directory and the output
// checks that failed.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	nproc    int
	work     string // scratch directory under the checkout, removed on exit
	errs     []string
	// singleCore marks the GOMAXPROCS=1 pass, whose open loops are not
	// judged for generator lateness.
	singleCore bool
}

// check records a failed output check; a run with any failed check prints
// "correct": false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		b.errs = append(b.errs, msg)
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
}

// scratch returns a fresh directory under the run's work directory.
func (b *bench) scratch(name string) (string, error) {
	dir, err := os.MkdirTemp(b.work, name+"-")
	if err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return dir, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(names, ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}

	b := &bench{workload: wl.name, seed: *seed, seconds: *seconds, nproc: runtime.NumCPU()}
	// All scratch state lives under the checkout; the build wrapper points
	// TMPDIR there as well.
	if err := os.MkdirAll(filepath.Join(".bench_build", "work"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(".bench_build", "work"), wl.name+"-")
	if err != nil {
		return err
	}
	b.work, _ = filepath.Abs(work)
	defer os.RemoveAll(b.work)

	printHost(b, *trace)
	steal := markSteal()
	var res result
	if *trace == 0 {
		res, err = runE2E(b, wl)
	} else {
		res, err = runTraced(b, wl)
	}
	if err != nil {
		return err
	}
	fmt.Printf("host cpu steal during the run: %.1f%% of all CPU time\n", 100*steal.since())
	res.Correct = len(b.errs) == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runE2E is the untraced run: one pass over the full measured time, with
// set-up repeated so setup_s is a median.
func runE2E(b *bench, wl *workload) (result, error) {
	out, err := wl.pass(b, passCfg{seconds: b.seconds, setups: 3})
	if err != nil {
		return result{}, err
	}
	printNamed(wl.name, "untraced", out.named)
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, s := range e2eSlots {
		v, ok := out.e2e[s.name]
		b.check(ok, "workload %s did not measure %s", wl.name, s.name)
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}

// runTraced splits the measured time between an untraced pass (the base
// for tracing overhead and the Go runtime counts), a traced pass (the
// per-layer metrics) and, where the workload has parallel stages, a traced
// pass at GOMAXPROCS=1.
func runTraced(b *bench, wl *workload) (result, error) {
	parts := 2.0
	if wl.gmp1 {
		parts = 3
	}
	share := b.seconds / parts
	base, err := wl.pass(b, passCfg{seconds: share, setups: 1})
	if err != nil {
		return result{}, err
	}
	printNamed(wl.name, "untraced", base.named)
	traced, err := wl.pass(b, passCfg{seconds: share, setups: 1, traced: true})
	if err != nil {
		return result{}, err
	}
	printNamed(wl.name, "traced", traced.named)

	layer := traced.layer
	layer["trace.overhead_p50_ms"] = traced.e2e["p50_ms"] - base.e2e["p50_ms"]
	layer["go.allocs_per_op"] = base.layer["go.allocs_per_op"]
	layer["go.gc_cpu_fraction"] = base.layer["go.gc_cpu_fraction"]
	attempted := base.attempted + traced.attempted
	failed := base.failed + traced.failed
	spans := traced.spans

	if wl.gmp1 {
		prev := runtime.GOMAXPROCS(1)
		b.singleCore = true
		one, err := wl.pass(b, passCfg{seconds: share, setups: 1, traced: true})
		b.singleCore = false
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return result{}, err
		}
		printNamed(wl.name, "traced GOMAXPROCS=1", one.named)
		for _, name := range gmp1Layers {
			layer["gmp1."+name] = one.layer[name]
		}
		layer["gmp1.p50_ms"] = one.e2e["p50_ms"]
		attempted += one.attempted
		failed += one.failed
	}
	if err := writeSpans(b, spans); err != nil {
		return result{}, err
	}

	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{Value: layer[l.name], Unit: l.unit}
	}
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("layer %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

func printNamed(workload, pass string, named []namedValue) {
	for _, nv := range named {
		fmt.Printf("metric %s [%s] %-22s %14.6g %-8s n=%d\n", workload, pass, nv.name, nv.value, nv.unit, nv.samples)
	}
}

// printHost records where and how the result was measured.
func printHost(b *bench, trace int) {
	host := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"trace":      trace,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      b.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"start":      time.Now().UTC().Format(time.RFC3339),
	}
	line, _ := json.Marshal(host)
	fmt.Println("host", string(line))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(l, "model name") {
			if i := strings.IndexByte(l, ':'); i >= 0 {
				return strings.TrimSpace(l[i+1:])
			}
		}
	}
	return "unknown"
}
