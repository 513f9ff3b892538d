// Command mab-report regenerates the paper's tables and figures.
//
// Usage:
//
//	mab-report [-preset smoke|quick|full] [-exp id] [-list] [-seed n] [-j n]
//	mab-report -robust [-faults noise:0.5,stuckarm:1:7]
//	mab-report -scenarios [-scenario dramsched,cacheins]
//	mab-report -robust -telemetry out.jsonl [-telemetry-every 100]
//	mab-report -parbench BENCH_parallel.json [-preset quick] [-j n]
//	mab-report -servebench BENCH_batch.json [-servebench-duration 2s] [-j n]
//	mab-report -simbench BENCH_sim.json [-simbench-baseline old.json] [-simbench-insts n]
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
// exit 2 listing the valid ones. -parbench times the heaviest experiments serial vs
// parallel and writes the wall-clock comparison as JSON. -servebench
// measures serving throughput — the scalar step/reward baseline, then a
// /v1/batch size sweep — and writes BENCH_batch.json. -simbench
// measures raw single-run simulator throughput (insts/sec per catalog
// workload) and writes BENCH_sim.json, optionally computing speedups
// against a previously recorded run.
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
	"microbandit/internal/par"
	"microbandit/internal/scenario"
	"microbandit/internal/serve"
	"microbandit/internal/serve/loadgen"
	"microbandit/internal/simbench"
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
	parBench := flag.String("parbench", "", "time Table8 and Fig5 serial vs parallel, write JSON here")
	serveBench := flag.String("servebench", "", "measure serving throughput (scalar baseline + /v1/batch size sweep), write JSON here")
	serveBenchDur := flag.Duration("servebench-duration", 2*time.Second, "with -servebench: measured window per configuration")
	simBench := flag.String("simbench", "", "measure single-run simulator throughput (insts/sec per workload), write JSON here")
	simBenchBaseline := flag.String("simbench-baseline", "", "with -simbench: previously recorded BENCH_sim.json to compute speedups against")
	simBenchInsts := flag.Int64("simbench-insts", simbench.DefaultInsts, "with -simbench: instructions per workload")
	simBenchGuard := flag.Float64("simbench-guard", 0, "with -simbench-baseline: exit 1 if gmean speedup vs the baseline falls below this ratio (skipped when the CPU counts differ)")
	noChunkCache := flag.Bool("no-chunk-cache", false, "disable the shared trace chunk cache for experiment runs (outputs are byte-identical either way; this only trades speed for memory)")
	telemetry := flag.String("telemetry", "", "with -robust: write a JSONL telemetry event stream to this path (plus timeline.csv/regret.csv alongside)")
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
	if *simBenchBaseline != "" && *simBench == "" {
		fmt.Fprintln(os.Stderr, "mab-report: -simbench-baseline requires -simbench")
		os.Exit(2)
	}
	if *simBenchInsts <= 0 {
		fmt.Fprintf(os.Stderr, "mab-report: -simbench-insts must be positive, got %d\n", *simBenchInsts)
		os.Exit(2)
	}
	if *simBenchGuard < 0 {
		fmt.Fprintf(os.Stderr, "mab-report: -simbench-guard must be >= 0, got %v\n", *simBenchGuard)
		os.Exit(2)
	}
	if *simBenchGuard > 0 && *simBenchBaseline == "" {
		fmt.Fprintln(os.Stderr, "mab-report: -simbench-guard requires -simbench-baseline")
		os.Exit(2)
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

	if *parBench != "" {
		if err := runParBench(*parBench, *preset, o); err != nil {
			fmt.Fprintf(os.Stderr, "mab-report: %v\n", err)
			exit(1)
		}
		exit(0)
	}

	if *simBench != "" {
		if err := runSimBench(*simBench, *simBenchBaseline, *simBenchInsts, *seed, *simBenchGuard); err != nil {
			fmt.Fprintf(os.Stderr, "mab-report: %v\n", err)
			exit(1)
		}
		exit(0)
	}

	if *serveBench != "" {
		if err := runServeBench(ctx, *serveBench, *workers, *seed, *serveBenchDur); err != nil {
			fmt.Fprintf(os.Stderr, "mab-report: %v\n", err)
			exit(1)
		}
		exit(0)
	}

	// Experiment runs share one trace chunk cache: sweeps replay the same
	// (app, seed) trace across many agent configurations, and a memoized
	// slab turns every repeat into a memcpy. Rendered text and CSV are
	// byte-identical with the cache on or off (pinned by
	// TestChunkCacheInvariant), so this is on by default.
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
		names := scenario.Names()
		if *scenarioNames != "" {
			names = strings.Split(*scenarioNames, ",")
			for i := range names {
				names[i] = strings.TrimSpace(names[i])
			}
		}
		var collector *obs.Collector
		if *telemetry != "" {
			collector = obs.NewCollector(*telemetryEvery)
			o.Obs = collector
		}
		start := time.Now()
		r, err := harness.ScenariosWith(o, names)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mab-report: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(r.Render())
		if *csvDir != "" {
			writeCSV(*csvDir, "scenarios", r.CSV())
		}
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
		sweep := harness.DefaultFaultSweep()
		if *faultSpec != "" {
			set, err := fault.ParseSet(*faultSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mab-report: -faults: %v\n", err)
				os.Exit(2)
			}
			sweep = set
		}
		var collector *obs.Collector
		if *telemetry != "" {
			collector = obs.NewCollector(*telemetryEvery)
			o.Obs = collector
		}
		start := time.Now()
		r := harness.RobustWith(o, sweep)
		fmt.Print(r.Render())
		if *csvDir != "" {
			writeCSV(*csvDir, "robust", r.CSV())
		}
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
		e, ok := harness.Find(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "mab-report: unknown experiment %q (try -list)\n", *expID)
			os.Exit(2)
		}
		start := time.Now()
		fmt.Printf("== %s: %s ==\n", e.ID, e.Desc)
		fmt.Print(runOne(e, o, *csvDir))
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
		fmt.Print(runOne(e, o, *csvDir))
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

// writeCSV writes one experiment's CSV file, reporting but not dying on
// I/O errors.
func writeCSV(dir, id, csv string) {
	path := filepath.Join(dir, id+".csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "mab-report: writing %s: %v\n", path, err)
	}
}

// runOne executes an experiment once, writing its CSV alongside when a
// CSV directory is configured and the experiment has a tabular form.
func runOne(e harness.Experiment, o harness.Options, csvDir string) string {
	if csvDir == "" {
		return e.Run(o)
	}
	text, csv, ok := harness.RunWithCSV(e.ID, o)
	if !ok {
		return e.Run(o)
	}
	writeCSV(csvDir, e.ID, csv)
	return text
}

// runSimBench measures single-run simulator throughput per workload and
// writes the BENCH_sim.json report, merging speedups against a prior
// recording when one is supplied.
func runSimBench(path, baselinePath string, insts int64, seed uint64, guard float64) error {
	rep := simbench.Run(insts, seed)
	var base simbench.Report
	if baselinePath != "" {
		var err error
		base, err = simbench.ReadReport(baselinePath)
		if err != nil {
			return err
		}
		rep = simbench.Merge(rep, base)
	}
	for _, w := range rep.Workloads {
		line := fmt.Sprintf("%-8s (%s): %.0f insts/sec", w.Name, w.App, w.InstsPerSec)
		if w.InstsPerSecMemo > 0 {
			line += fmt.Sprintf(" (memo %.0f, hit %.2f, ff %.2f)", w.InstsPerSecMemo, w.ChunkHitRate, w.FFCoverage)
		}
		line += fmt.Sprintf(", ipc %.4f", w.IPC)
		if w.Speedup > 0 {
			line += fmt.Sprintf(", %.2fx vs baseline", w.Speedup)
		}
		if w.SpeedupMemo > 0 {
			line += fmt.Sprintf(" (memo %.2fx)", w.SpeedupMemo)
		}
		fmt.Println(line)
	}
	if rep.GMeanSpeedup > 0 {
		fmt.Printf("gmean speedup: %.2fx\n", rep.GMeanSpeedup)
	}
	if rep.GMeanSpeedupMemo > 0 {
		fmt.Printf("gmean speedup (warm chunk cache): %.2fx\n", rep.GMeanSpeedupMemo)
	}
	// Write the report before the guard verdict so a failing run still
	// leaves its measurements behind for diagnosis.
	if err := simbench.WriteReport(path, rep); err != nil {
		return err
	}
	if guard > 0 {
		switch {
		case base.CPUs != rep.CPUs:
			// Different vCPU class: absolute throughput is not
			// comparable, so the guard abstains rather than flaking.
			fmt.Printf("simbench guard: skipped (baseline recorded on %d CPUs, this host has %d)\n",
				base.CPUs, rep.CPUs)
		case rep.GMeanSpeedup < guard:
			return fmt.Errorf("simbench guard: gmean %.3fx vs %s is below the %.2fx floor",
				rep.GMeanSpeedup, baselinePath, guard)
		default:
			fmt.Printf("simbench guard: ok (gmean %.2fx >= %.2fx floor)\n", rep.GMeanSpeedup, guard)
		}
	}
	return nil
}

// serveBenchReport is the BENCH_batch.json schema: the scalar
// step/reward baseline plus a /v1/batch size sweep, all on one server
// configuration.
type serveBenchReport struct {
	CPUs      int               `json:"cpus"`
	Workers   int               `json:"workers"`
	DurationS float64           `json:"duration_s"`
	Scalar    *loadgen.Result   `json:"scalar"`
	Batch     []*loadgen.Result `json:"batch"`
	// MaxDecisionsPerSec is the headline: the best throughput any
	// configuration reached, and the batch size that reached it
	// (0 = the scalar baseline).
	MaxDecisionsPerSec float64 `json:"max_decisions_per_sec"`
	BestBatch          int     `json:"best_batch"`
	// SpeedupVsScalar is MaxDecisionsPerSec over the scalar baseline's
	// decisions/sec.
	SpeedupVsScalar float64 `json:"speedup_vs_scalar"`
}

// runServeBench measures an in-process decision server: the scalar
// protocol first, then /v1/batch across batch sizes. Every
// configuration gets a fresh server, so learned state never leaks
// between runs.
func runServeBench(ctx context.Context, path string, workers int, seed uint64, dur time.Duration) error {
	if workers <= 0 {
		workers = 8
	}
	rep := serveBenchReport{
		CPUs:      runtime.NumCPU(),
		Workers:   workers,
		DurationS: dur.Seconds(),
	}
	run := func(batch int) (*loadgen.Result, error) {
		srv := serve.New(serve.Config{Version: version.String()})
		return loadgen.Run(ctx, loadgen.Options{
			Handler:  srv,
			Workers:  workers,
			Duration: dur,
			Batch:    batch,
			Spec:     serve.Spec{Algo: "ducb", Arms: 8, Seed: seed},
		})
	}

	fmt.Printf("servebench: scalar baseline (%d workers, %v)...\n", workers, dur)
	scalar, err := run(0)
	if err != nil {
		return err
	}
	fmt.Printf("  scalar: %.0f decisions/sec, p50 %.1fµs/req\n", scalar.DecisionsPerSec, scalar.P50Us)
	rep.Scalar = scalar
	rep.MaxDecisionsPerSec = scalar.DecisionsPerSec

	for _, b := range []int{1, 4, 16, 64, 256} {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		fmt.Printf("servebench: batch=%d...\n", b)
		res, err := run(b)
		if err != nil {
			return err
		}
		fmt.Printf("  batch=%d: %.0f decisions/sec, p50 %.2fµs/decision\n",
			b, res.DecisionsPerSec, res.P50PerDecisionUs)
		rep.Batch = append(rep.Batch, res)
		if res.DecisionsPerSec > rep.MaxDecisionsPerSec {
			rep.MaxDecisionsPerSec = res.DecisionsPerSec
			rep.BestBatch = b
		}
	}
	if scalar.DecisionsPerSec > 0 {
		rep.SpeedupVsScalar = rep.MaxDecisionsPerSec / scalar.DecisionsPerSec
	}
	fmt.Printf("servebench: best %.0f decisions/sec at batch=%d (%.1fx over scalar)\n",
		rep.MaxDecisionsPerSec, rep.BestBatch, rep.SpeedupVsScalar)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parBenchEntry is one experiment's serial-vs-parallel timing.
type parBenchEntry struct {
	Experiment string  `json:"experiment"`
	SerialS    float64 `json:"serial_s"`
	ParallelS  float64 `json:"parallel_s"`
	Speedup    float64 `json:"speedup"`
	Identical  bool    `json:"output_identical"`
	// ChunkHitRate and FFCoverage describe the parallel run: the
	// fraction of trace chunks served from the shared memo cache
	// (cross-configuration sweep reuse) and the fraction of simulated
	// instructions retired through the steady-state fast-forward path.
	ChunkHitRate float64 `json:"chunk_hit_rate"`
	FFCoverage   float64 `json:"ff_coverage"`
}

// parBenchReport is the BENCH_parallel.json schema.
type parBenchReport struct {
	Preset  string          `json:"preset"`
	CPUs    int             `json:"cpus"`
	Workers int             `json:"workers"`
	Entries []parBenchEntry `json:"entries"`
}

// runParBench times the two heaviest experiments (the Fig. 5 policy
// sweep and the Table 8 static-arm oracle) serial vs parallel and
// writes the comparison to path. It also cross-checks that both modes
// rendered identical bytes — the engine's determinism contract.
func runParBench(path, preset string, o harness.Options) error {
	workers := o.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	rep := parBenchReport{
		Preset:  preset,
		CPUs:    runtime.NumCPU(),
		Workers: workers,
	}
	for _, id := range []string{"table8", "fig5"} {
		// Each mode gets its own cold chunk cache so the serial and
		// parallel timings see identical memoization behavior and the
		// speedup stays an apples-to-apples engine comparison.
		serial := o
		serial.Workers = 1
		serial.ChunkCache = trace.NewChunkCache(0)
		parallel := o
		parallel.Workers = workers
		parallel.ChunkCache = trace.NewChunkCache(0)
		parallel.SimCounters = &harness.SimCounters{}

		fmt.Printf("timing %s serial...\n", id)
		t0 := time.Now()
		textS, _, ok := harness.RunWithCSV(id, serial)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		serialS := time.Since(t0).Seconds()

		fmt.Printf("timing %s parallel (j=%d)...\n", id, workers)
		t0 = time.Now()
		textP, _, _ := harness.RunWithCSV(id, parallel)
		parallelS := time.Since(t0).Seconds()

		e := parBenchEntry{
			Experiment:   id,
			SerialS:      serialS,
			ParallelS:    parallelS,
			Identical:    textS == textP,
			ChunkHitRate: parallel.SimCounters.HitRate(),
			FFCoverage:   parallel.SimCounters.FFCoverage(),
		}
		if parallelS > 0 {
			e.Speedup = serialS / parallelS
		}
		fmt.Printf("%s: serial %.1fs, parallel %.1fs, speedup %.2fx, identical=%v, chunk hit %.2f, ff %.2f\n",
			id, e.SerialS, e.ParallelS, e.Speedup, e.Identical, e.ChunkHitRate, e.FFCoverage)
		rep.Entries = append(rep.Entries, e)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
