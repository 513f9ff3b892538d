// Command mab-smt runs SMT instruction-fetch simulations: one or more
// 2-thread mixes under one fetch PG controller (bandit, Choi, ICount, or
// any static policy), printing per-thread IPC plus the rename-stage
// breakdown. The batch experiments live in mab-report.
//
// Usage:
//
//	mab-smt -mix gcc-lbm -ctrl bandit [-cycles 3000000]
//	        [-telemetry out.jsonl] [-telemetry-every 100]
//	mab-smt -mix mcf-lbm -ctrl policy:LSQC_1111
//	mab-smt -mix gcc-lbm,mcf-lbm,x264-bwaves -j 4
//	mab-smt -list
//
// With a comma-separated -mix list, the simulations fan out across -j
// worker goroutines and the reports print in input order. A failing mix
// is reported on stderr without taking down its siblings. Bad flag
// values exit 2 with the valid choices; a failed or interrupted run
// exits 1 after printing what finished.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"microbandit/cmd/internal/cli"
	"microbandit/internal/harness"
	"microbandit/internal/obs"
	"microbandit/internal/simsmt"
	"microbandit/internal/smtwork"
	"microbandit/internal/version"
)

// runConfig carries the per-run flag values into the worker pool.
type runConfig struct {
	ctrlName  string
	seed      uint64
	showTrace bool
}

func main() {
	mixNames := flag.String("mix", "gcc-lbm", "2-thread mix(es) as appA-appB, comma-separated")
	ctrlName := flag.String("ctrl", "bandit", "controller: bandit, choi, icount, or policy:<mnemonic>")
	cycles := flag.Int64("cycles", 3_000_000, "cycles to simulate")
	epoch := flag.Int64("epoch", 16*1024, "Hill Climbing epoch length in cycles")
	rrEpochs := flag.Int("rrepochs", 8, "bandit step length during the initial RR phase, in epochs")
	mainEpochs := flag.Int("mainepochs", 2, "bandit step length during the main loop, in epochs")
	seed := flag.Uint64("seed", 1, "random seed")
	showTrace := flag.Bool("trace", false, "print the arm exploration trace")
	telemetry := flag.String("telemetry", "", "write a JSONL telemetry event stream to this path (plus timeline.csv/regret.csv alongside)")
	telemetryEvery := flag.Int("telemetry-every", 100, "telemetry snapshot/interval cadence in bandit steps")
	list := flag.Bool("list", false, "list thread profiles and exit")
	workers := flag.Int("j", 0, "worker goroutines for multi-mix runs (0 = one per CPU)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("mab-smt", version.String())
		return
	}
	if *list {
		for _, p := range smtwork.Profiles() {
			fmt.Printf("%-12s load=%.2f store=%.2f branch=%.2f fp=%.2f\n",
				p.Name, p.LoadFrac, p.StoreFrac, p.BranchFrac, p.FPFrac)
		}
		return
	}

	// Validate every flag before any simulation starts: bad values exit 2
	// with usage, never a mid-run panic.
	if *cycles <= 0 {
		usageErr(fmt.Errorf("-cycles must be positive, got %d", *cycles))
	}
	if *epoch <= 0 {
		usageErr(fmt.Errorf("-epoch must be positive, got %d", *epoch))
	}
	if *rrEpochs <= 0 || *mainEpochs <= 0 {
		usageErr(fmt.Errorf("-rrepochs and -mainepochs must be positive, got %d and %d", *rrEpochs, *mainEpochs))
	}
	if *workers < 0 {
		usageErr(fmt.Errorf("-j must be >= 0, got %d", *workers))
	}
	if *telemetryEvery <= 0 {
		usageErr(fmt.Errorf("-telemetry-every must be positive, got %d", *telemetryEvery))
	}
	if _, err := harness.SMTCtrl(*ctrlName, *seed); err != nil {
		usageErr(err)
	}

	var mixes []smtwork.Mix
	for _, name := range strings.Split(*mixNames, ",") {
		name = strings.TrimSpace(name)
		parts := strings.SplitN(name, "-", 2)
		if len(parts) != 2 {
			usageErr(fmt.Errorf("mix must be appA-appB, got %q", name))
		}
		a, err := smtwork.ByName(parts[0])
		if err != nil {
			usageErr(fmt.Errorf("%v (valid: %s)", err, profileNames()))
		}
		b, err := smtwork.ByName(parts[1])
		if err != nil {
			usageErr(fmt.Errorf("%v (valid: %s)", err, profileNames()))
		}
		mixes = append(mixes, smtwork.Mix{A: a, B: b})
	}

	cfg := runConfig{ctrlName: *ctrlName, seed: *seed, showTrace: *showTrace}
	// Each mix is an independent simulation with its own state and seed;
	// an interrupt stops it at the next epoch boundary.
	f := cli.Fanout{Cmd: "mab-smt", Workers: *workers, Telemetry: *telemetry, Every: *telemetryEvery, Sep: "\n"}
	os.Exit(cli.Run(f, harness.Options{SMTCycles: *cycles, EpochLen: *epoch, RREpochs: *rrEpochs,
		MainEpochs: *mainEpochs}, mixes, smtwork.Mix.Name, cfg.simulate))
}

// simulate runs one mix through harness.SimSMT and returns its
// formatted report. rec, when non-nil, receives the run's telemetry
// stream. If o.Ctx is canceled mid-run the simulation stops at the next
// epoch boundary and the report covers the cycles that did run, flagged
// as partial.
func (cfg runConfig) simulate(o harness.Options, mix smtwork.Mix, rec obs.Recorder) (string, error) {
	s, _ := harness.SMTCtrl(cfg.ctrlName, cfg.seed) // validated before fan-out
	s.Mix, s.Seed, s.RecordArms, s.Rec = mix, cfg.seed, cfg.showTrace, rec
	runner := o.SimSMT(s)
	sim := runner.Sim

	var b strings.Builder
	fmt.Fprintf(&b, "mix=%s ctrl=%s cycles=%d policy=%s\n",
		mix.Name(), cfg.ctrlName, sim.Cycle(), sim.Policy())
	if o.Ctx.Err() != nil {
		fmt.Fprintf(&b, "INTERRUPTED after %d of %d cycles; statistics are partial\n", sim.Cycle(), o.SMTCycles)
	}
	fmt.Fprintf(&b, "thread0 (%s): %d uops   thread1 (%s): %d uops\n",
		mix.A.Name, sim.Committed(0), mix.B.Name, sim.Committed(1))
	fmt.Fprintf(&b, "sum IPC: %.4f   hill-climb share: %.3f\n", sim.SumIPC(), sim.Share())
	rs := sim.RenameStats()
	total := float64(rs.Total())
	fmt.Fprintf(&b, "rename: running %.1f%%  idle %.1f%%  stalled %.1f%% "+
		"(ROB %.1f%%, IQ %.1f%%, LQ %.1f%%, SQ %.1f%%, RF %.1f%%)\n",
		pct(rs.Running, total), pct(rs.Idle, total), pct(rs.Stalled(), total),
		pct(rs.StallROB, total), pct(rs.StallIQ, total), pct(rs.StallLQ, total),
		pct(rs.StallSQ, total), pct(rs.StallRF, total))
	if cfg.showTrace {
		b.WriteString("arm trace (cycle:arm):\n")
		for _, s := range runner.ArmTrace {
			fmt.Fprintf(&b, "  %d:%d", s.Cycle, s.Arm)
		}
		b.WriteByte('\n')
		arms := simsmt.Table1Arms()
		for i, p := range arms {
			fmt.Fprintf(&b, "  arm %d = %s\n", i, p)
		}
	}
	return b.String(), nil
}

// profileNames returns the valid mix components for error messages.
func profileNames() string {
	var names []string
	for _, p := range smtwork.Profiles() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

func pct(n int64, total float64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / total * 100
}

// usageErr reports a bad flag value and exits 2.
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "mab-smt:", err)
	flag.Usage()
	os.Exit(2)
}
