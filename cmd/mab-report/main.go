// Command mab-report regenerates the paper's tables and figures.
//
// Usage:
//
//	mab-report [-preset smoke|quick|full] [-exp id] [-list] [-seed n] [-j n]
//	mab-report -robust [-faults noise:0.5,stuckarm:1:7]
//	mab-report -scenarios [-scenario dramsched,cacheins]
//	mab-report -robust -telemetry out.jsonl [-telemetry-every 100]
//	mab-report -exp fig8 -pprof profdir
//
// With no -exp it runs every experiment in paper order; -list prints the
// experiment registry (ids match DESIGN.md's per-experiment index).
// -robust runs the fault-injection robustness sweep, optionally with a
// custom -faults sweep (comma-separated kind:intensity[:seed] specs, one
// sweep row each). -scenarios runs every registered decision scenario
// (DRAM scheduling, cache insertion, prefetch degree, prefetch config,
// agent selection) with the same bandit against each scenario's static
// arms; -scenario filters to a comma-separated subset, and unknown names
// exit 2 listing the valid ones. Throughput is measured by the benchmark
// under bench/ (bash bench/run.sh).
//
// Failed experiment jobs (including recovered panics) never crash the
// report: the affected experiment renders partial results, an error
// appendix lists the failures, and the process exits 1. Bad flag values
// exit 2.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"microbandit/internal/fault"
	"microbandit/internal/harness"
	"microbandit/internal/obs"
	"microbandit/internal/scenario"
	"microbandit/internal/trace"
	"microbandit/internal/version"
)

func main() {
	preset := flag.String("preset", "quick", "run size: smoke, quick, or full")
	expID := flag.String("exp", "", "run a single experiment by id (e.g. fig8, table9)")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Uint64("seed", 1, "base random seed")
	csvDir := flag.String("csvdir", "", "also write per-experiment CSV files into this directory")
	workers := flag.Int("j", 0, "worker goroutines per experiment (0 = one per CPU, 1 = serial)")
	robust := flag.Bool("robust", false, "run the fault-injection robustness sweep")
	scenarios := flag.Bool("scenarios", false, "run the cross-scenario reusability experiment (one bandit, every decision problem)")
	scenarioNames := flag.String("scenario", "", "with -scenarios: comma-separated scenario names to run ("+strings.Join(scenario.Names(), ", ")+")")
	faultSpec := flag.String("faults", "", "with -robust: custom sweep as comma-separated kind:intensity[:seed] ("+strings.Join(fault.KindNames(), ", ")+")")
	noChunkCache := flag.Bool("no-chunk-cache", false, "disable the shared trace chunk cache for experiment runs (outputs are byte-identical either way; the cache stores a trace only once a second run reads it)")
	telemetry := flag.String("telemetry", "", "with -robust or -scenarios: write a JSONL telemetry event stream to this path (plus timeline.csv/regret.csv alongside)")
	telemetryEvery := flag.Int("telemetry-every", 100, "telemetry snapshot/interval cadence in bandit steps")
	pprofDir := flag.String("pprof", "", "capture cpu.pprof, heap.pprof, and runtime metrics into this directory")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("mab-report", version.String())
		return
	}
	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Desc)
		}
		return
	}

	var o harness.Options
	switch *preset {
	case "smoke":
		o = harness.Smoke()
	case "quick":
		o = harness.Quick()
	case "full":
		o = harness.Full()
	default:
		fmt.Fprintf(os.Stderr, "mab-report: unknown preset %q (valid: smoke, quick, full)\n", *preset)
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "mab-report: -j must be >= 0, got %d\n", *workers)
		os.Exit(2)
	}
	if *faultSpec != "" && !*robust {
		fmt.Fprintln(os.Stderr, "mab-report: -faults requires -robust")
		os.Exit(2)
	}
	if *scenarioNames != "" && !*scenarios {
		fmt.Fprintln(os.Stderr, "mab-report: -scenario requires -scenarios")
		os.Exit(2)
	}
	if *telemetry != "" && !*robust && !*scenarios {
		fmt.Fprintln(os.Stderr, "mab-report: -telemetry requires -robust or -scenarios")
		os.Exit(2)
	}
	if *telemetryEvery <= 0 {
		fmt.Fprintf(os.Stderr, "mab-report: -telemetry-every must be positive, got %d\n", *telemetryEvery)
		os.Exit(2)
	}
	// Every flag value is checked before profiling starts and the chunk
	// cache is built, so a bad one exits 2 without leaving a cpu.pprof.
	names := scenario.Names()
	if *scenarioNames != "" {
		names = strings.Split(*scenarioNames, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
			if _, err := scenario.NewByName(names[i]); err != nil {
				fmt.Fprintf(os.Stderr, "mab-report: %v\n", err)
				os.Exit(2)
			}
		}
	}
	var sweep []fault.Spec
	if *faultSpec != "" {
		var err error
		if sweep, err = fault.ParseSet(*faultSpec); err != nil {
			fmt.Fprintf(os.Stderr, "mab-report: -faults: %v\n", err)
			os.Exit(2)
		}
	}
	var exp harness.Experiment
	if *expID != "" {
		var ok bool
		if exp, ok = harness.Find(*expID); !ok {
			fmt.Fprintf(os.Stderr, "mab-report: unknown experiment %q (try -list)\n", *expID)
			os.Exit(2)
		}
	}
	o.Seed = *seed
	o.Workers = *workers
	// Collect per-job failures instead of crashing: experiments render
	// partial results and the appendix below lists what failed.
	o.Errs = harness.NewErrorLog()
	// SIGINT/SIGTERM cancels the experiment engine: in-flight simulations
	// stop at the next chunk boundary, canceled jobs land in the error
	// appendix, and whatever finished still renders before the exit.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	o.Ctx = ctx
	interrupted = func() bool { return ctx.Err() != nil }

	// Profiling spans every simulation below; exits go through exit() so
	// the capture flushes (os.Exit skips defers).
	profStop = startProfiling(*pprofDir)

	// Experiment runs share one trace chunk cache. A trace is stored
	// only once a second run opens its (app, seed) key, and later runs
	// replay it with a memcpy; traces read once (all of Table 8) cost no
	// memory. Rendered text and CSV are byte-identical with the cache on
	// or off (pinned by TestChunkCacheInvariant), so this is on by
	// default.
	if !*noChunkCache {
		o.ChunkCache = trace.NewChunkCache(0)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mab-report: %v\n", err)
			exit(1)
		}
	}

	if *scenarios {
		var collector *obs.Collector
		if *telemetry != "" {
			collector = obs.NewCollector(*telemetryEvery)
			o.Obs = collector
		}
		start := time.Now()
		r, err := harness.ScenariosWith(o, names)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mab-report: %v\n", err)
			exit(2)
		}
		fmt.Print(r.Render())
		writeCSV(*csvDir, "scenarios", r.CSV())
		if collector != nil {
			if err := obs.WriteFiles(*telemetry, *telemetryEvery, collector.Events()); err != nil {
				fmt.Fprintf(os.Stderr, "mab-report: telemetry: %v\n", err)
				exit(1)
			}
		}
		fmt.Printf("(scenarios: %.1fs)\n", time.Since(start).Seconds())
		exitAfterAppendix(o.Errs)
	}

	if *robust {
		if sweep == nil {
			sweep = harness.DefaultFaultSweep()
		}
		var collector *obs.Collector
		if *telemetry != "" {
			collector = obs.NewCollector(*telemetryEvery)
			o.Obs = collector
		}
		start := time.Now()
		r := harness.RobustWith(o, sweep)
		fmt.Print(r.Render())
		writeCSV(*csvDir, "robust", r.CSV())
		if collector != nil {
			if err := obs.WriteFiles(*telemetry, *telemetryEvery, collector.Events()); err != nil {
				fmt.Fprintf(os.Stderr, "mab-report: telemetry: %v\n", err)
				exit(1)
			}
		}
		fmt.Printf("(robust: %.1fs)\n", time.Since(start).Seconds())
		exitAfterAppendix(o.Errs)
	}

	if *expID != "" {
		start := time.Now()
		fmt.Printf("== %s: %s ==\n", exp.ID, exp.Desc)
		text, csv := exp.Run(o)
		writeCSV(*csvDir, exp.ID, csv)
		fmt.Print(text)
		fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
		exitAfterAppendix(o.Errs)
	}
	anyFailed := false
	for _, e := range harness.Experiments() {
		if interrupted() {
			break
		}
		start := time.Now()
		fmt.Printf("== %s: %s ==\n", e.ID, e.Desc)
		text, csv := e.Run(o)
		writeCSV(*csvDir, e.ID, csv)
		fmt.Print(text)
		if o.Errs.Len() > 0 {
			anyFailed = true
			fmt.Print(harness.RenderFailures(o.Errs.Drain()))
		}
		fmt.Printf("(%s: %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	if anyFailed {
		exit(1)
	}
	exit(0)
}

// profStop finalizes the -pprof capture; replaced by startProfiling.
var profStop = func() {}

// interrupted reports whether SIGINT/SIGTERM canceled the run; replaced
// in main once the signal context exists.
var interrupted = func() bool { return false }

// exit flushes the profiling capture before terminating: os.Exit skips
// deferred calls, so every post-simulation exit path must come through
// here. An interrupted run never exits 0 — its results are partial.
func exit(code int) {
	if interrupted() {
		fmt.Fprintln(os.Stderr, "mab-report: interrupted; results above are partial")
		if code == 0 {
			code = 1
		}
	}
	profStop()
	os.Exit(code)
}

// exitAfterAppendix prints the error appendix for any collected failures
// and exits: 0 for a clean run, 1 for a partial one.
func exitAfterAppendix(errs *harness.ErrorLog) {
	if errs.Len() == 0 {
		exit(0)
	}
	fmt.Print(harness.RenderFailures(errs.Drain()))
	exit(1)
}

// startProfiling begins a CPU profile in dir and returns the stop
// function that finalizes cpu.pprof, captures heap.pprof, and dumps the
// runtime/metrics registry as JSON. An empty dir is a no-op capture.
func startProfiling(dir string) func() {
	if dir == "" {
		return func() {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "mab-report: -pprof: %v\n", err)
		os.Exit(1)
	}
	cpuF, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mab-report: -pprof: %v\n", err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		fmt.Fprintf(os.Stderr, "mab-report: -pprof: %v\n", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		cpuF.Close()
		if heapF, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
			runtime.GC()
			if err := pprof.WriteHeapProfile(heapF); err != nil {
				fmt.Fprintf(os.Stderr, "mab-report: -pprof heap: %v\n", err)
			}
			heapF.Close()
		} else {
			fmt.Fprintf(os.Stderr, "mab-report: -pprof heap: %v\n", err)
		}
		writeRuntimeMetrics(filepath.Join(dir, "runtime-metrics.json"))
	}
}

// writeRuntimeMetrics samples every runtime/metrics entry and writes the
// scalar values (histograms are summarized by their sample count) as a
// JSON object keyed by metric name.
func writeRuntimeMetrics(path string) {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	out := make(map[string]any, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = s.Value.Uint64()
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		case metrics.KindFloat64Histogram:
			total := uint64(0)
			for _, c := range s.Value.Float64Histogram().Counts {
				total += c
			}
			out[s.Name+":samples"] = total
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mab-report: -pprof metrics: %v\n", err)
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "mab-report: -pprof metrics: %v\n", err)
	}
}

// writeCSV writes one experiment's CSV file into dir, reporting but not
// dying on I/O errors. Without a -csvdir, or for an experiment without a
// tabular form, it writes nothing.
func writeCSV(dir, id, csv string) {
	if dir == "" || csv == "" {
		return
	}
	path := filepath.Join(dir, id+".csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "mab-report: writing %s: %v\n", path, err)
	}
}
