// Command mab-prefetch runs single-core prefetching simulations: one or
// more applications, from the synthetic catalog or recorded trace files,
// under one prefetcher configuration, printing IPC plus hierarchy
// statistics. It is the interactive probe for the prefetching use case
// (the batch experiments live in mab-report).
//
// Usage:
//
//	mab-prefetch -app lbm17 -pf bandit [-insts 4000000] [-mtps 2400]
//	             [-algo ducb|ucb|eps|single|periodic|static:N]
//	             [-faults noise:0.5,stuckarm:1] [-trace] [-list]
//	             [-telemetry out.jsonl] [-telemetry-every 100] [-sim-fields]
//	mab-prefetch -app lbm17,mcf06,ligra-bfs -j 4
//	mab-prefetch -app all -j 0
//	mab-prefetch -app lbm17.mbt,mcf06 -pf none
//
// An -app entry ending in .mbt is a trace file written by mab-trace
// record (the paper's trace-driven methodology, §6.1). It runs under the
// name in its header and loops over its instructions until -insts is met
// (§6.2); -seed still seeds the prefetchers and the agent. An unreadable,
// malformed or empty trace file is a bad -app value.
//
// With a comma-separated -app list (or "all"), the simulations fan out
// across -j worker goroutines and the reports print in input order. A
// failing app is reported on stderr without taking down its siblings.
// Bad flag values exit 2 with the valid choices; a failed or interrupted
// run exits 1 after printing what finished.
//
// -telemetry writes the JSONL event stream plus timeline.csv and
// regret.csv next to it, byte-identical at every -j value; -sim-fields
// adds the fast-forward coverage field to its interval events.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"microbandit/cmd/internal/cli"
	"microbandit/internal/core"
	"microbandit/internal/fault"
	"microbandit/internal/harness"
	"microbandit/internal/mem"
	"microbandit/internal/obs"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
	"microbandit/internal/version"
)

// runConfig carries the per-run flag values into the worker pool.
type runConfig struct {
	pfName    string
	algo      string
	seed      uint64
	showTrace bool
	simFields bool
	memCfg    mem.Config
	faults    fault.Set
}

func main() {
	appNames := flag.String("app", "lbm17", "application(s): a catalog name or .mbt trace file, a comma-separated list of them, or \"all\"")
	pfName := flag.String("pf", "bandit", "prefetcher: "+strings.Join(prefetch.Names(), ", "))
	algo := flag.String("algo", "ducb", "bandit algorithm: "+strings.Join(core.AlgoNames(), ", "))
	insts := flag.Int64("insts", 4_000_000, "instructions to simulate")
	mtps := flag.Float64("mtps", 2400, "DRAM channel rate (mega-transfers/s)")
	altCache := flag.Bool("altcache", false, "use the Fig. 11 cache hierarchy (1MB L2 / 1.5MB LLC)")
	stepL2 := flag.Int("step", 1000, "bandit step length in L2 demand accesses")
	seed := flag.Uint64("seed", 1, "random seed")
	faultSpec := flag.String("faults", "", "inject faults: comma-separated kind:intensity[:seed] ("+strings.Join(fault.KindNames(), ", ")+")")
	showTrace := flag.Bool("trace", false, "print the arm exploration trace")
	telemetry := flag.String("telemetry", "", "write a JSONL telemetry event stream to this path (plus timeline.csv/regret.csv alongside)")
	telemetryEvery := flag.Int("telemetry-every", 100, "telemetry snapshot/interval cadence in bandit steps")
	simFields := flag.Bool("sim-fields", false, "with -telemetry: add the simulator-effectiveness field ff_coverage (fast-forward coverage) to interval events")
	list := flag.Bool("list", false, "list catalog applications and exit")
	workers := flag.Int("j", 0, "worker goroutines for multi-app runs (0 = one per CPU)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("mab-prefetch", version.String())
		return
	}
	if *list {
		for _, a := range trace.Catalog() {
			fmt.Printf("%-16s %s\n", a.Name, a.Suite)
		}
		return
	}

	// Validate every flag before any simulation starts: bad values exit 2
	// with usage, never a mid-run panic.
	if *insts <= 0 {
		usageErr(fmt.Errorf("-insts must be positive, got %d", *insts))
	}
	if *stepL2 <= 0 {
		usageErr(fmt.Errorf("-step must be positive, got %d", *stepL2))
	}
	if *mtps <= 0 {
		usageErr(fmt.Errorf("-mtps must be positive, got %g", *mtps))
	}
	if *workers < 0 {
		usageErr(fmt.Errorf("-j must be >= 0, got %d", *workers))
	}
	if *telemetryEvery <= 0 {
		usageErr(fmt.Errorf("-telemetry-every must be positive, got %d", *telemetryEvery))
	}
	faults, err := fault.ParseSet(*faultSpec)
	if err != nil {
		usageErr(fmt.Errorf("-faults: %v", err))
	}

	apps, err := cli.Apps(*appNames, true)
	if err != nil {
		usageErr(err)
	}

	memCfg := mem.DefaultConfig()
	if *altCache {
		memCfg = mem.AltCacheConfig()
	}
	memCfg.MTPS = *mtps
	cfg := runConfig{
		pfName: *pfName, algo: *algo, seed: *seed, showTrace: *showTrace,
		simFields: *simFields, memCfg: memCfg, faults: faults,
	}

	// Validate the prefetcher/algorithm configuration once before fanning
	// out.
	if _, _, _, err := cfg.build(); err != nil {
		usageErr(err)
	}
	// Each app is an independent simulation with its own hierarchy and
	// seed; an interrupt stops it at the next 100k-instruction chunk.
	f := cli.Fanout{Cmd: "mab-prefetch", Workers: *workers, Telemetry: *telemetry, Every: *telemetryEvery, Sep: "\n"}
	os.Exit(cli.Run(f, harness.Options{Insts: *insts, StepL2: *stepL2}, apps,
		func(app trace.App) string { return app.Name }, cfg.simulate))
}

// build constructs the run's prefetcher through the prefetch registry
// and, for an arm-tunable one, its controller through the algorithm
// registry.
func (cfg runConfig) build() (l2 prefetch.Prefetcher, ctrl core.Controller, arms prefetch.Tunable, err error) {
	l2, arms, err = prefetch.NewByName(cfg.pfName, cfg.seed)
	if err != nil || arms == nil {
		return l2, nil, arms, err
	}
	ctrl, err = core.ParseAlgo(cfg.algo, arms.NumArms(), cfg.seed, false)
	return l2, ctrl, arms, err
}

// simulate runs one app and returns its formatted report. rec, when
// non-nil, receives the run's telemetry stream. If o.Ctx is canceled
// mid-run the simulation stops at the next chunk boundary and the report
// covers the instructions that did run, flagged as partial.
func (cfg runConfig) simulate(o harness.Options, app trace.App, rec obs.Recorder) (string, error) {
	l2, ctrl, arms, err := cfg.build()
	if err != nil {
		return "", err
	}
	r := o.SimPrefetch(harness.PrefetchSpec{
		Gen: app.New(cfg.seed), Seed: cfg.seed, Mem: cfg.memCfg,
		L2: l2, Ctrl: ctrl, Arms: arms, Faults: cfg.faults, Rec: rec,
		RecordArms: cfg.showTrace, SimFields: cfg.simFields,
	})
	interrupted := o.Ctx.Err() != nil
	c, hier := r.Core, r.Hier

	var b strings.Builder
	st := hier.Stats()
	cl := hier.Classify()
	fmt.Fprintf(&b, "app=%s prefetcher=%s insts=%d cycles=%d\n", app.Name, cfg.pfName, c.Insts(), c.Cycles())
	if interrupted {
		fmt.Fprintf(&b, "INTERRUPTED after %d of %d instructions; statistics are partial\n", c.Insts(), o.Insts)
	}
	if len(cfg.faults) > 0 {
		fmt.Fprintf(&b, "faults: %s\n", cfg.faults.String())
	}
	fmt.Fprintf(&b, "IPC: %.4f\n", c.IPC())
	fmt.Fprintf(&b, "L2 demand accesses: %d   LLC misses: %d   DRAM reads: %d\n",
		st.L2Demand, st.LLCMisses, hier.DRAM().Reads())
	fmt.Fprintf(&b, "prefetches issued: %d   timely: %d   late: %d   wrong: %d   dropped: %d\n",
		st.PrefIssued, cl.Timely, cl.Late, cl.Wrong, st.PrefDropped)
	if r.Ctrl != nil {
		fmt.Fprintf(&b, "bandit steps: %d\n", r.Steps())
	}
	if cfg.showTrace {
		b.WriteString("arm trace (cycle:arm):\n")
		for _, s := range r.ArmTrace {
			fmt.Fprintf(&b, "  %d:%d", s.Cycle, s.Arm)
		}
		b.WriteByte('\n')
		if agent, ok := r.Ctrl.(*core.Agent); ok {
			fmt.Fprintf(&b, "final rTable: %v\n", agent.Rewards())
		}
	}
	return b.String(), nil
}

// usageErr reports a bad flag value and exits 2.
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "mab-prefetch:", err)
	flag.Usage()
	os.Exit(2)
}
