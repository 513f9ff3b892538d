// Package harness wires the substrates into the paper's experiments: one
// runner per table and figure of the motivation and evaluation sections
// (see DESIGN.md's per-experiment index), plus the ablations DESIGN.md
// calls out. Each experiment returns structured results and renders the
// same rows/series the paper reports.
//
// Simulation budgets are scaled presets rather than the paper's 1 B
// instructions: Smoke (tests/benches), Quick (default CLI), and Full
// (longer CLI runs). All time constants scale together — bandit steps,
// Hill Climbing epochs, and phase lengths keep their ratios — so the
// learning dynamics are preserved at every preset (EXPERIMENTS.md
// documents the mapping).
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/fault"
	"microbandit/internal/mem"
	"microbandit/internal/obs"
	"microbandit/internal/par"
	"microbandit/internal/prefetch"
	"microbandit/internal/scenario"
	"microbandit/internal/simsmt"
	"microbandit/internal/smtwork"
	"microbandit/internal/trace"
)

// Options sizes an experiment run.
type Options struct {
	// Insts is the per-run instruction budget for prefetching
	// experiments.
	Insts int64
	// StepL2 is the prefetching bandit step in L2 demand accesses.
	StepL2 int
	// MaxApps caps the number of applications per suite (0 = all).
	MaxApps int

	// SMTCycles is the per-run cycle budget for SMT experiments.
	SMTCycles int64
	// EpochLen is the Hill Climbing epoch length in cycles.
	EpochLen int64
	// RREpochs and MainEpochs are the SMT bandit step lengths.
	RREpochs, MainEpochs int
	// MaxMixes caps the number of 2-thread mixes (0 = all).
	MaxMixes int

	// Seed is the base seed; every run derives a stable sub-seed.
	Seed uint64

	// Workers bounds the experiment engine's worker pool: independent
	// simulation runs fan out across this many goroutines. 0 (the
	// default) means runtime.GOMAXPROCS(0); 1 forces serial execution.
	// Results are assembled in input order, so rendered output is
	// byte-identical at every worker count.
	Workers int

	// Errs, when non-nil, collects failed jobs (including recovered
	// panics) so experiments render partial results and the CLI appends
	// an error appendix. When nil, a failed job panics on the
	// coordinating goroutine with full job attribution — never from
	// inside a worker.
	Errs *ErrorLog

	// Obs, when non-nil, collects telemetry from telemetry-capable
	// experiments (RobustWith, ScenariosWith): every run claims the
	// Collector slot matching its job index, so the assembled event
	// stream is byte-identical at every Workers count. The Collector's
	// Every field sets the snapshot/interval cadence in bandit steps of
	// every SimPrefetch or SimSMT run that records.
	Obs *obs.Collector

	// Ctx, when non-nil, cancels the experiment engine cooperatively:
	// once done, in-flight simulations stop at their next chunk or epoch
	// boundary and report the statistics they accumulated, unstarted
	// jobs land in Errs as cancellations, and the experiment renders
	// partial results. Nil means run to completion.
	Ctx context.Context

	// ChunkCache, when non-nil, is shared across the experiment's runs:
	// trace-generator output is memoized at chunk granularity, so runs
	// simulating the same (generator, seed) trace replay stored slabs
	// instead of regenerating them. A key is stored only once a second
	// run opens it, so traces read once cost no memory. Replay is
	// bit-identical and correctness never depends on residency, so every
	// output is byte-identical with and without the cache.
	ChunkCache *trace.ChunkCache

	// SimCounters, when non-nil, accumulates simulator-effectiveness
	// totals (instructions simulated, instructions fast-forwarded,
	// chunk-cache hits/misses) across the experiment's prefetching runs;
	// the CI bench matrix reports them per vCPU count.
	SimCounters *SimCounters
}

// SimCounters aggregates simulator-effectiveness counters across an
// experiment's runs. Safe for concurrent use: runs fan out across the
// worker pool.
type SimCounters struct {
	Insts  atomic.Int64 // instructions simulated
	FF     atomic.Int64 // instructions advanced by fast-forward spans
	Hits   atomic.Int64 // chunk-cache hits
	Misses atomic.Int64 // chunk-cache misses
}

// FFCoverage returns the fraction of simulated instructions advanced by
// the steady-state fast-forward pass.
func (s *SimCounters) FFCoverage() float64 {
	if insts := s.Insts.Load(); insts > 0 {
		return float64(s.FF.Load()) / float64(insts)
	}
	return 0
}

// HitRate returns the chunk-cache hit rate over the accumulated runs, or
// 0 before any chunk traffic.
func (s *SimCounters) HitRate() float64 {
	h, m := s.Hits.Load(), s.Misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// gen wraps a freshly built trace generator in the shared chunk cache
// when one is configured. seed must be the seed the generator was built
// with: the cache key is the generator's name plus that seed —
// everything a catalog stream is a function of.
func (o Options) gen(g trace.Generator, seed uint64) trace.Generator {
	if o.ChunkCache == nil {
		return g
	}
	return o.ChunkCache.Source(fmt.Sprintf("%s:%x", g.Name(), seed), g)
}

// noteSim folds a finished run's simulator-effectiveness counters into
// SimCounters, when configured.
func (o Options) noteSim(c *cpu.Core) {
	if o.SimCounters == nil {
		return
	}
	o.SimCounters.Insts.Add(c.Insts())
	o.SimCounters.FF.Add(c.FFInsts())
	if cs, ok := c.Gen().(trace.CacheStatser); ok {
		h, m := cs.CacheStats()
		o.SimCounters.Hits.Add(h)
		o.SimCounters.Misses.Add(m)
	}
}

// ctx resolves the engine context for simulation runners.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// runMultiCore co-simulates one multi-core workload under the engine
// context, folds every core into SimCounters, and returns its sum-IPC.
func (o Options) runMultiCore(runners []*cpu.Runner, instsPerCore int64) float64 {
	// A cancelled run's partial statistics are its result (Options.Ctx).
	_ = cpu.RunMultiCore(o.ctx(), runners, instsPerCore)
	for _, r := range runners {
		o.noteSim(r.Core)
	}
	return cpu.SumIPC(runners)
}

// workers resolves the pool size for runJobs.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return par.DefaultWorkers()
}

// runJobs fans an experiment's independent runs across the option's
// worker pool, returning results in input order. Every job must derive
// its own seed (Options.subSeed) and construct all simulation state
// locally; nothing may be shared across jobs.
//
// Jobs run with panic recovery: a panicking job yields its zero-valued
// result slot and is recorded in Options.Errs (or, with no log
// installed, re-panicked once all jobs finish — with the job index and
// original panic value, from the coordinating goroutine). Sibling jobs
// always run to completion, so experiments degrade to partial results
// instead of taking the whole engine down.
func runJobs[J, R any](o Options, jobs []J, fn func(J) R) []R {
	// Once Ctx is done, running jobs finish early (their simulators
	// observe the same context) and unstarted jobs come back as
	// cancellation errors instead of running.
	results, errs := par.RunCtx(o.ctx(), o.workers(), jobs, func(_ context.Context, j J) (R, error) {
		return fn(j), nil
	})
	for _, err := range errs {
		if err == nil {
			continue
		}
		if o.Errs != nil {
			o.Errs.add(err)
			continue
		}
		panic(err)
	}
	return results
}

// Smoke returns the smallest preset: seconds-scale, used by unit tests
// and the benchmark harness.
func Smoke() Options {
	return Options{
		Insts: 300_000, StepL2: 200, MaxApps: 2,
		SMTCycles: 400_000, EpochLen: 4 * 1024, RREpochs: 4, MainEpochs: 2,
		MaxMixes: 3, Seed: 1,
	}
}

// Quick returns the default CLI preset: minutes-scale.
func Quick() Options {
	return Options{
		Insts: 1_500_000, StepL2: 500, MaxApps: 4,
		SMTCycles: 1_500_000, EpochLen: 8 * 1024, RREpochs: 8, MainEpochs: 2,
		MaxMixes: 12, Seed: 1,
	}
}

// Full returns the large preset: tens of minutes, full app/mix coverage.
func Full() Options {
	return Options{
		Insts: 4_000_000, StepL2: 1000, MaxApps: 0,
		SMTCycles: 3_000_000, EpochLen: 16 * 1024, RREpochs: 16, MainEpochs: 2,
		MaxMixes: 0, Seed: 1,
	}
}

// apps returns the experiment's application list under the MaxApps cap,
// preserving suite balance.
func (o Options) apps(all []trace.App) []trace.App {
	if o.MaxApps <= 0 {
		return all
	}
	perSuite := map[string]int{}
	var out []trace.App
	for _, a := range all {
		if perSuite[a.Suite] < o.MaxApps {
			out = append(out, a)
			perSuite[a.Suite]++
		}
	}
	return out
}

// mixes returns the experiment's mix list under the MaxMixes cap, spread
// evenly across the full list so heterogeneity is preserved.
func (o Options) mixes(all []smtwork.Mix) []smtwork.Mix {
	if o.MaxMixes <= 0 || o.MaxMixes >= len(all) {
		return all
	}
	out := make([]smtwork.Mix, 0, o.MaxMixes)
	stride := float64(len(all)) / float64(o.MaxMixes)
	for i := 0; i < o.MaxMixes; i++ {
		out = append(out, all[int(float64(i)*stride)])
	}
	return out
}

// subSeed derives a stable per-run seed. A separator byte is folded in
// after every part so distinct part lists hash distinctly
// (subSeed("ab","c") != subSeed("a","bc")).
func (o Options) subSeed(parts ...string) uint64 {
	h := o.Seed*0x9e3779b97f4a7c15 + 0x1234
	for _, p := range parts {
		for _, c := range []byte(p) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		h = (h ^ 0x1f) * 1099511628211
	}
	return h
}

// ---------------------------------------------------------------------
// Prefetching machinery

// PfKind names a prefetcher configuration used across experiments.
type PfKind string

// Prefetcher configurations.
const (
	PfNone   PfKind = "NoPrefetch"
	PfStride PfKind = "Stride"
	PfBingo  PfKind = "Bingo"
	PfMLOP   PfKind = "MLOP"
	PfPythia PfKind = "Pythia"
	PfBandit PfKind = "Bandit"
)

// PrefetchRun is one (app, configuration) measurement.
type PrefetchRun struct {
	App   string
	Suite string
	Kind  string
	IPC   float64
	Stats mem.Stats
	Class mem.Classification
}

// newPf builds a configuration through the prefetch registry, whose
// names are the lower-cased kinds ("none" for PfNone). The bandit's
// Table 7 ensemble comes back with the paper's DUCB agent (Table 6)
// steering it; every other configuration has no controller.
func newPf(kind PfKind, seed uint64) (l2 prefetch.Prefetcher, ctrl core.Controller, arms prefetch.Tunable) {
	name := strings.ToLower(string(kind))
	if kind == PfNone {
		name = "none"
	}
	l2, arms, err := prefetch.NewByName(name, seed)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	if arms != nil {
		ctrl = mustAlgo("ducb", arms.NumArms(), seed)
	}
	return l2, ctrl, arms
}

// mustAlgo builds a registry agent (core.ParseAlgo). The harness only
// names registered algorithms, so an error is a programming error.
func mustAlgo(name string, arms int, seed uint64) core.Controller {
	ctrl, err := core.ParseAlgo(name, arms, seed, false)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return ctrl
}

// ducbRR builds the paper's DUCB agent (core.AlgoConfig "ducb") with
// the §4.3 round-robin restart at the given per-step probability.
func ducbRR(arms int, seed uint64, prob float64) *core.Agent {
	cfg, err := core.AlgoConfig("ducb", arms, seed, false)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	cfg.RRRestartProb = prob
	return core.MustNew(cfg)
}

// PrefetchSpec is what differs between single-core prefetch
// simulations; Options.SimPrefetch does the rest of the wiring.
type PrefetchSpec struct {
	// Gen is the freshly built trace generator and Seed the seed it was
	// built with (the chunk-cache key and every fault's run seed).
	Gen  trace.Generator
	Seed uint64
	Mem  mem.Config
	// L2 is the L2 prefetcher (nil means prefetch.Null{}); L1, when
	// non-nil, is an additional L1 prefetcher (Fig. 12).
	L2, L1 prefetch.Prefetcher
	// Ctrl, when non-nil, selects Arms every bandit step.
	Ctrl core.Controller
	Arms cpu.Actuator
	// Wire, when set, builds the decision unit inside the fresh core and
	// hierarchy (a scenario's Wire); its prefetcher, arms and reward
	// probe replace L2 and Arms.
	Wire func(*cpu.Core, *mem.Hierarchy) scenario.Instance
	// Faults is injected around the clean substrates: the DRAM, the
	// generator, the controller's reward channel and the arm surface.
	Faults fault.Set
	// Rec, when non-nil, receives the run's telemetry at the cadence of
	// Options.Obs, which must then be set.
	Rec obs.Recorder
	// RecordArms enables the runner's exploration trace; SimFields adds
	// the simulator-effectiveness fields to telemetry intervals.
	RecordArms, SimFields bool
}

// SimPrefetch builds, wires and runs one single-core prefetch
// simulation for o.Insts instructions and returns its runner (Core,
// Hier, Ctrl as the runner saw it, ArmTrace). Once o.Ctx is done the run
// stops at its next chunk boundary; its statistics stay valid for the
// instructions that did run.
//
// With a recorder, telemetry attaches to s.Ctrl before the fault
// wrapper hides the agent's SetRecorder: the stream reports what the
// agent decided, not what a fault corrupted it into. The reward probe,
// by contrast, goes through the wrapper, which forwards it. Fault
// activations lead the run's events and a KindRunEnd with the headline
// IPC closes them.
func (o Options) SimPrefetch(s PrefetchSpec) *cpu.Runner {
	hier := mem.NewHierarchy(s.Mem)
	if bf := fault.Bandwidth(s.Faults, s.Seed); bf != nil {
		hier.DRAM().SetBandwidthFault(bf)
	}
	c := cpu.New(cpu.DefaultConfig(), hier, fault.Generator(o.gen(s.Gen, s.Seed), s.Faults, s.Seed))
	var probe core.RewardProbe
	if s.Wire != nil {
		inst := s.Wire(c, hier)
		s.L2, s.Arms, probe = inst.Pf, inst.Tunable, inst.Probe
	}
	if s.L2 == nil {
		s.L2 = prefetch.Null{}
	}

	ctrl, arms := s.Ctrl, s.Arms
	every := 0
	if s.Rec != nil {
		every = o.Obs.Every
		obs.Attach(ctrl, s.Rec, every)
		for _, spec := range s.Faults {
			s.Rec.Record(obs.Event{Kind: obs.KindFault, Label: spec.String()})
		}
	}
	if ctrl != nil {
		ctrl = fault.Controller(ctrl, s.Faults, s.Seed)
		if ps, ok := ctrl.(core.ProbeSetter); ok && probe != nil {
			ps.SetRewardProbe(probe)
		}
	}
	if arms != nil {
		arms = fault.Arms(arms, s.Faults, s.Seed)
	}

	r := cpu.NewRunner(c, s.L2, ctrl, arms)
	r.L1Pf = s.L1
	r.StepL2 = o.StepL2
	r.Probe = probe
	if s.RecordArms {
		r.RecordArms()
	}
	if s.Rec != nil {
		r.Obs = s.Rec
		r.ObsEvery = every
		r.ObsSimCounters = s.SimFields
	}
	// A cancelled run's partial statistics are its result (Options.Ctx).
	_ = r.RunCtx(o.ctx(), o.Insts)
	o.noteSim(c)
	if s.Rec != nil {
		s.Rec.Record(obs.Event{Kind: obs.KindRunEnd, Step: r.Steps(),
			Fields: obs.NewFields().Set(obs.FieldIPC, c.IPC())})
	}
	return r
}

// prefetchRun folds a finished run into its measurement.
func prefetchRun(app trace.App, kind string, r *cpu.Runner) PrefetchRun {
	return PrefetchRun{
		App: app.Name, Suite: app.Suite, Kind: kind,
		IPC: r.Core.IPC(), Stats: r.Hier.Stats(), Class: r.Hier.Classify(),
	}
}

// runPrefetch simulates one app under one configuration.
func (o Options) runPrefetch(app trace.App, kind PfKind, memCfg mem.Config) PrefetchRun {
	seed := o.subSeed("pf", app.Name, string(kind))
	l2, ctrl, arms := newPf(kind, seed)
	r := o.SimPrefetch(PrefetchSpec{Gen: app.New(seed), Seed: seed, Mem: memCfg,
		L2: l2, Ctrl: ctrl, Arms: arms})
	return prefetchRun(app, string(kind), r)
}

// runPrefetchCtrl simulates one app with the Table 7 ensemble under an
// arbitrary controller (bandit algorithm comparisons, best-static oracle).
func (o Options) runPrefetchCtrl(app trace.App, name string, ctrl core.Controller, memCfg mem.Config) PrefetchRun {
	seed := o.subSeed("pfctrl", app.Name, name)
	ens := prefetch.NewTable7Ensemble()
	r := o.SimPrefetch(PrefetchSpec{Gen: app.New(seed), Seed: seed, Mem: memCfg,
		L2: ens, Ctrl: ctrl, Arms: ens})
	return prefetchRun(app, name, r)
}

// ---------------------------------------------------------------------
// SMT machinery

// SMTSpec is what differs between 2-thread SMT simulations;
// Options.SimSMT does the rest of the wiring.
type SMTSpec struct {
	// Mix is the thread pair and Seed its trace seed.
	Mix  smtwork.Mix
	Seed uint64
	// Ctrl, when non-nil, selects a Table 1 arm every bandit step over
	// Hill Climbing. Without it the run keeps Policy, with Hill Climbing
	// when HillClimb is set or with ARPA repartitioning when ARPA is.
	Ctrl            core.Controller
	Policy          simsmt.Policy
	HillClimb, ARPA bool
	// Reward selects the bandit's reward metric (§6.4); Solo holds the
	// threads' single-threaded IPCs the weighted metrics need.
	Reward simsmt.RewardMode
	Solo   [2]float64
	// RecordArms enables the runner's exploration trace.
	RecordArms bool
	// Rec, when non-nil, receives the run's telemetry at the cadence of
	// Options.Obs, which must then be set.
	Rec obs.Recorder
}

// SimSMT builds, wires and runs one 2-thread SMT simulation for
// o.SMTCycles cycles, with the epoch lengths of o, and returns its
// runner (Sim, ArmTrace). Once o.Ctx is done the run stops at its next
// epoch boundary; its statistics stay valid for the cycles that did run.
// With a recorder, telemetry attaches to s.Ctrl and the runner, and a
// KindRunEnd with the run's sum-IPC closes the run's events.
func (o Options) SimSMT(s SMTSpec) *simsmt.Runner {
	sim := simsmt.NewSim(s.Mix.A, s.Mix.B, s.Seed)
	var r *simsmt.Runner
	switch {
	case s.Ctrl != nil:
		r = simsmt.NewRunner(sim, s.Ctrl, simsmt.Table1Arms(), true)
	case s.ARPA:
		r = simsmt.NewARPARunner(sim, s.Policy)
	default:
		r = simsmt.NewFixedRunner(sim, s.Policy, s.HillClimb)
	}
	r.EpochLen, r.RREpochs, r.MainEpochs = o.EpochLen, o.RREpochs, o.MainEpochs
	r.Reward, r.Solo = s.Reward, s.Solo
	if s.RecordArms {
		r.RecordArms()
	}
	if s.Rec != nil {
		obs.Attach(s.Ctrl, s.Rec, o.Obs.Every)
		r.Obs, r.ObsEvery = s.Rec, o.Obs.Every
	}
	// A cancelled run's partial statistics are its result (Options.Ctx).
	_ = r.RunCyclesCtx(o.ctx(), o.SMTCycles)
	if s.Rec != nil {
		s.Rec.Record(obs.Event{Kind: obs.KindRunEnd, Cycle: sim.Cycle(),
			Fields: obs.NewFields().Set(obs.FieldSumIPC, sim.SumIPC())})
	}
	return r
}

// SMTCtrl resolves an SMT controller name into the runner kind of an
// SMTSpec: "bandit" is the paper's DUCB agent (simsmt.NewBanditAgent)
// seeded with seed, "choi" Choi's policy with Hill Climbing, "icount"
// ICount without it, and "policy:<mnemonic>" any fetch PG policy with
// Hill Climbing. Other names return an error listing the valid forms.
func SMTCtrl(name string, seed uint64) (SMTSpec, error) {
	switch {
	case name == "bandit":
		return SMTSpec{Ctrl: simsmt.NewBanditAgent(seed)}, nil
	case name == "choi":
		return SMTSpec{Policy: simsmt.ChoiPolicy, HillClimb: true}, nil
	case name == "icount":
		return SMTSpec{Policy: simsmt.ICountPolicy}, nil
	case strings.HasPrefix(name, "policy:"):
		p, err := simsmt.ParsePolicy(strings.TrimPrefix(name, "policy:"))
		return SMTSpec{Policy: p, HillClimb: true}, err
	}
	return SMTSpec{}, fmt.Errorf("unknown controller %q (valid: bandit, choi, icount, policy:<mnemonic>)", name)
}

// simSMTNamed runs mix under a named controller (SMTCtrl) whose agent, if
// any, is seeded with agentSeed. The trace seed keys on the name, under
// "smt" for fixed-policy runs and "smtctrl" for controller runs.
func (o Options) simSMTNamed(mix smtwork.Mix, name string, agentSeed uint64) *simsmt.Runner {
	s, err := SMTCtrl(name, agentSeed)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	prefix := "smt"
	if s.Ctrl != nil {
		prefix = "smtctrl"
	}
	s.Mix, s.Seed = mix, o.subSeed(prefix, mix.Name(), name)
	return o.SimSMT(s)
}

// banditAlgoOrder lists the Table 8/9 bandit columns in the papers'
// order; parallel runners iterate it so job lists are deterministic.
var banditAlgoOrder = []string{"Single", "Periodic", "eps-Greedy", "UCB", "DUCB"}

// algoNames maps each algorithm column label of Tables 8 and 9, Fig. 7
// and the robustness comparison to its core registry name.
var algoNames = map[string]string{
	"Single":     "single",
	"Periodic":   "periodic",
	"eps-Greedy": "eps",
	"UCB":        "ucb",
	"DUCB":       "ducb",
	"CTX-DUCB":   "ctx-ducb",
}

// newAlgo builds a column's agent (core.AlgoConfigAt) at the use case's
// Table 6 pair: c and gamma.
func newAlgo(label string, arms int, seed uint64, c, gamma float64) core.Controller {
	cfg, err := core.AlgoConfigAt(algoNames[label], arms, seed, c, gamma, false)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return core.MustNew(cfg)
}

// sortedKeys returns map keys in a stable order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
