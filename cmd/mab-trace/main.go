// Command mab-trace records synthetic applications into the binary trace
// format and replays trace files through the core model — the trace-driven
// methodology of the paper's ChampSim platform (§6.1), including the
// concatenate-short-traces rule of §6.2 (replayed traces loop until the
// instruction budget is met).
//
// Usage:
//
//	mab-trace record -app lbm17 -insts 2000000 -out lbm17.mbt
//	mab-trace record -app lbm17,mcf06,bfs -j 4
//	mab-trace replay -in lbm17.mbt -insts 4000000 -pf bandit
//	mab-trace replay -in lbm17.mbt -pf bandit -telemetry out.jsonl [-sim-fields]
//	mab-trace info -in lbm17.mbt
//
// With a comma-separated -app list (or "all"), record writes one
// <app>.mbt per application, fanning the recordings out across -j worker
// goroutines.
//
// replay accepts every mab-prefetch -pf name (default none); the bandit
// is the paper's DUCB agent over the Table 7 ensemble, stepping every
// 1,000 L2 demand accesses. -telemetry writes the JSONL event stream
// plus timeline.csv and regret.csv next to it. To simulate catalog
// applications directly, without a trace file, use mab-prefetch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/harness"
	"microbandit/internal/mem"
	"microbandit/internal/obs"
	"microbandit/internal/par"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
	"microbandit/internal/version"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch {
	case os.Args[1] == "-version", os.Args[1] == "--version", os.Args[1] == "version":
		fmt.Println("mab-trace", version.String())
	case os.Args[1] == "record":
		record(os.Args[2:])
	case os.Args[1] == "replay":
		replay(os.Args[2:])
	case os.Args[1] == "info":
		info(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mab-trace {record|replay|info|version} [flags]")
	os.Exit(2)
}

// interruptCtx returns a context canceled by SIGINT/SIGTERM, so long
// simulations stop at the next chunk boundary and still report the
// partial statistics (plus telemetry) they accumulated.
func interruptCtx() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	appNames := fs.String("app", "lbm17", "application(s) to record: a name, a comma-separated list, or \"all\"")
	insts := fs.Int64("insts", 2_000_000, "instructions to record")
	out := fs.String("out", "", "output trace file (single app only; default <app>.mbt)")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("j", 0, "worker goroutines for multi-app recording (0 = one per CPU)")
	_ = fs.Parse(args)

	if *insts <= 0 {
		usageErr(fs, fmt.Errorf("-insts must be positive, got %d", *insts))
	}
	if *workers < 0 {
		usageErr(fs, fmt.Errorf("-j must be >= 0, got %d", *workers))
	}
	var apps []trace.App
	if *appNames == "all" {
		apps = trace.Catalog()
	} else {
		for _, name := range strings.Split(*appNames, ",") {
			app, err := trace.ByName(strings.TrimSpace(name))
			if err != nil {
				usageErr(fs, fmt.Errorf("%v (valid: %s, or \"all\")", err, catalogNames()))
			}
			apps = append(apps, app)
		}
	}
	if *out != "" && len(apps) > 1 {
		usageErr(fs, fmt.Errorf("-out only applies to a single app; got %d", len(apps)))
	}

	// Each recording owns its generator and output file; reports print in
	// input order regardless of worker count. An interrupt abandons
	// in-flight recordings and removes their partial files — a truncated
	// trace would silently shorten every later replay.
	ctx, stop := interruptCtx()
	defer stop()
	reports, errs := par.RunCtx(ctx, *workers, apps, func(ctx context.Context, app trace.App) (string, error) {
		path := *out
		if path == "" {
			path = app.Name + ".mbt"
		}
		return recordOne(ctx, app, path, *insts, *seed)
	})
	for i, report := range reports {
		if errs[i] != nil {
			if errors.Is(errs[i], context.Canceled) {
				continue
			}
			fatal(errs[i])
		}
		fmt.Print(report)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "mab-trace: interrupted; unfinished recordings were removed")
		os.Exit(1)
	}
}

// recordOne writes one application's trace file and returns the report
// line. On cancellation the partial file is removed and ctx's error
// returned.
func recordOne(ctx context.Context, app trace.App, path string, insts int64, seed uint64) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w, err := trace.NewWriter(f, app.Name)
	if err != nil {
		return "", err
	}
	// Generation goes through the chunked source — slab-sized batches,
	// bit-identical to the scalar stream — with a short final chunk for
	// budgets that are not a multiple of ChunkLen. The file format is
	// unchanged: chunking is purely a producer-side batching.
	src := trace.SourceOf(app.New(seed))
	var chunk trace.Chunk
	var inst trace.Inst
	for done := int64(0); done < insts; {
		if ctx.Err() != nil {
			f.Close()
			os.Remove(path)
			return "", ctx.Err()
		}
		n := int64(trace.ChunkLen)
		if rem := insts - done; rem < n {
			n = rem
		}
		chunk.Reset(int(n))
		src.NextChunk(&chunk)
		for i := 0; i < chunk.Len(); i++ {
			chunk.Get(i, &inst)
			if err := w.Write(&inst); err != nil {
				return "", err
			}
		}
		done += n
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	st, err := f.Stat()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("recorded %d instructions of %s to %s (%d bytes, %.2f B/inst)\n",
		w.Count(), app.Name, path, st.Size(), float64(st.Size())/float64(w.Count())), nil
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "", "input trace file")
	insts := fs.Int64("insts", 4_000_000, "instructions to simulate (trace loops if shorter)")
	pf := fs.String("pf", "none", "prefetcher: "+strings.Join(prefetch.Names(), ", "))
	seed := fs.Uint64("seed", 1, "random seed")
	telemetry := fs.String("telemetry", "", "write a JSONL telemetry event stream to this path (plus timeline.csv/regret.csv alongside)")
	telemetryEvery := fs.Int("telemetry-every", 100, "telemetry snapshot/interval cadence in bandit steps")
	simFields := fs.Bool("sim-fields", false, "with -telemetry: add the simulator-effectiveness field ff_coverage (fast-forward coverage) to interval events")
	_ = fs.Parse(args)

	if *in == "" {
		usageErr(fs, fmt.Errorf("replay needs -in"))
	}
	if *insts <= 0 {
		usageErr(fs, fmt.Errorf("-insts must be positive, got %d", *insts))
	}
	if *telemetryEvery <= 0 {
		usageErr(fs, fmt.Errorf("-telemetry-every must be positive, got %d", *telemetryEvery))
	}
	l2, arms, err := prefetch.NewByName(*pf, *seed)
	if err != nil {
		usageErr(fs, err)
	}
	var ctrl core.Controller
	if arms != nil {
		if ctrl, err = core.ParseAlgo("ducb", arms.NumArms(), *seed, false); err != nil {
			fatal(err)
		}
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	insts2, err := r.ReadAll()
	if err != nil {
		fatal(err)
	}
	if len(insts2) == 0 {
		fatal(fmt.Errorf("empty trace"))
	}
	// §6.2: short traces are concatenated until the budget is reached.
	gen := trace.NewLoop(r.TraceName(), insts2)

	var rec obs.Recorder
	var collector *obs.Collector
	if *telemetry != "" {
		collector = obs.NewCollector(*telemetryEvery)
		rec = collector.Slot(0, r.TraceName())
	}
	ctx, stop := interruptCtx()
	defer stop()
	o := harness.Options{Insts: *insts, StepL2: cpu.StepL2Accesses, Ctx: ctx, Obs: collector}
	runner := o.SimPrefetch(harness.PrefetchSpec{
		Gen: gen, Seed: *seed, Mem: mem.DefaultConfig(),
		L2: l2, Ctrl: ctrl, Arms: arms, Rec: rec, SimFields: *simFields,
	})
	interrupted := ctx.Err() != nil
	c := runner.Core
	if collector != nil {
		if err := obs.WriteFiles(*telemetry, *telemetryEvery, collector.Events()); err != nil {
			fatal(fmt.Errorf("telemetry: %w", err))
		}
	}
	note := ""
	if interrupted {
		note = " [interrupted; partial]"
	}
	fmt.Printf("replayed %s: %d insts, %d cycles, IPC %.4f%s\n",
		r.TraceName(), c.Insts(), c.Cycles(), c.IPC(), note)
	if interrupted {
		os.Exit(1)
	}
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "input trace file")
	_ = fs.Parse(args)
	if *in == "" {
		usageErr(fs, fmt.Errorf("info needs -in"))
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	var counts [5]int64
	var total int64
	var inst trace.Inst
	for {
		if err := r.Read(&inst); err != nil {
			break
		}
		counts[inst.Kind]++
		total++
	}
	fmt.Printf("trace %s: %d instructions\n", r.TraceName(), total)
	for k, n := range counts {
		if total > 0 {
			fmt.Printf("  %-7s %10d (%.1f%%)\n", trace.Kind(k), n, 100*float64(n)/float64(total))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mab-trace:", err)
	os.Exit(1)
}

// catalogNames returns the valid -app values for error messages.
func catalogNames() string {
	var names []string
	for _, a := range trace.Catalog() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// usageErr reports a bad flag value and exits 2 with the subcommand's
// usage.
func usageErr(fs *flag.FlagSet, err error) {
	fmt.Fprintln(os.Stderr, "mab-trace:", err)
	fs.Usage()
	os.Exit(2)
}
