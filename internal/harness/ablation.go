package harness

import (
	"fmt"
	"strings"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
	"microbandit/internal/simsmt"
	"microbandit/internal/smtwork"
	"microbandit/internal/stats"
	"microbandit/internal/trace"
)

// The ablations quantify the design choices DESIGN.md calls out: the two
// §4.3 modifications, the longer round-robin bandit step for SMT (§5.3),
// the DUCB forgetting factor, and the arm-set size.

// AblationRow is one configuration's aggregate result.
type AblationRow struct {
	Config string
	Value  float64
}

// AblationResult is a generic named result list.
type AblationResult struct {
	Title  string
	Metric string
	Rows   []AblationRow
}

// Render formats the ablation as a table.
func (r AblationResult) Render() string {
	t := stats.NewTable(r.Title, "config", r.Metric)
	for _, row := range r.Rows {
		t.AddFloatRow(row.Config, "%.4f", row.Value)
	}
	return t.Render()
}

// AblationNormalization compares DUCB with and without the §4.3 reward
// normalization across apps whose absolute IPCs differ widely.
func AblationNormalization(o Options) AblationResult {
	apps := o.apps(trace.TuneSet())
	memCfg := mem.DefaultConfig()
	// The static oracle ignores Normalize, so one sweep serves both rows.
	best, _ := o.bestStaticPrefetchAll(apps, memCfg)

	variants := []bool{true, false}
	type job struct{ varIdx, appIdx int }
	jobs := make([]job, 0, len(variants)*len(apps))
	for vi := range variants {
		for ai := range apps {
			jobs = append(jobs, job{vi, ai})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		app := apps[j.appIdx]
		normalize := variants[j.varIdx]
		ctrl := core.MustNew(core.Config{
			Arms:      core.PrefetchArms,
			Policy:    core.NewDUCB(core.PrefetchC, core.PrefetchGamma),
			Normalize: normalize,
			Seed:      o.subSeed("abl-norm", app.Name),
		})
		return o.runPrefetchCtrl(app, fmt.Sprintf("norm-%v", normalize), ctrl, memCfg).IPC
	})

	gmean := func(vi int) float64 {
		ratios := make([]float64, 0, len(apps))
		for ai := range apps {
			if best[ai] <= 0 {
				continue
			}
			ratios = append(ratios, ipcs[vi*len(apps)+ai]/best[ai])
		}
		return stats.GeoMean(ratios)
	}
	return AblationResult{
		Title:  "Ablation: reward normalization by r_avg (§4.3 mod 1)",
		Metric: "gmean IPC / best static",
		Rows: []AblationRow{
			{Config: "DUCB + normalization", Value: gmean(0)},
			{Config: "DUCB, raw rewards", Value: gmean(1)},
		},
	}
}

// AblationRRRestart compares 4-core Bandit with and without the §4.3
// round-robin restart on DRAM-heavy apps, where inter-core interference
// during exploration matters most.
func AblationRRRestart(o Options) AblationResult {
	apps := o.apps(trace.BySuite("Ligra"))
	memCfg := mem.DefaultConfig()
	instsPerCore := o.Insts / 4
	if instsPerCore < 50_000 {
		instsPerCore = 50_000
	}
	// One job is one full 4-core simulation: its cores share an LLC/DRAM
	// pool, so they stay on one goroutine.
	run4 := func(app trace.App, prob float64) float64 {
		shared := mem.NewShared(memCfg, 4)
		runners := make([]*cpu.Runner, 0, 4)
		for coreID := 0; coreID < 4; coreID++ {
			// The "false" part keeps the seeds of the rows from when this
			// ablation also ran a coordinated variant.
			seed := o.subSeed("abl-rr", app.Name, fmt.Sprint(coreID),
				fmt.Sprint(prob), "false")
			hier := mem.NewCoreHierarchy(memCfg, shared)
			c := cpu.New(cpu.DefaultConfig(), hier, o.gen(app.New(seed), seed))
			ens := prefetch.NewTable7Ensemble()
			ctrl := ducbRR(ens.NumArms(), seed, prob)
			r := cpu.NewRunner(c, ens, ctrl, ens)
			r.StepL2 = o.StepL2
			runners = append(runners, r)
		}
		return o.runMultiCore(runners, instsPerCore)
	}

	configs := []struct {
		label string
		prob  float64
	}{
		{"rr_restart_prob = 0", 0},
		{"rr_restart_prob = 0.001", core.RRRestartProb4Core},
		{"rr_restart_prob = 0.01", 0.01},
	}
	type job struct{ cfgIdx, appIdx int }
	jobs := make([]job, 0, len(configs)*len(apps))
	for ci := range configs {
		for ai := range apps {
			jobs = append(jobs, job{ci, ai})
		}
	}
	sums := runJobs(o, jobs, func(j job) float64 {
		cfg := configs[j.cfgIdx]
		return run4(apps[j.appIdx], cfg.prob)
	})

	rows := make([]AblationRow, 0, len(configs))
	for ci, cfg := range configs {
		rows = append(rows, AblationRow{
			Config: cfg.label,
			Value:  stats.GeoMean(sums[ci*len(apps) : (ci+1)*len(apps)]),
		})
	}
	return AblationResult{
		Title:  "Ablation: round-robin restart under 4-core interference (§4.3 mod 2)",
		Metric: "gmean sum-IPC",
		Rows:   rows,
	}
}

// AblationStepRR sweeps the SMT initial round-robin bandit step length
// (§5.3: the longer step gives Hill Climbing time to converge per arm).
func AblationStepRR(o Options) AblationResult {
	mixes := o.mixes(smtwork.TuneMixes())
	rrs := []int{1, 2, o.RREpochs, 4 * o.RREpochs}

	type job struct{ rrIdx, mixIdx int }
	jobs := make([]job, 0, len(rrs)*len(mixes))
	for ri := range rrs {
		for mi := range mixes {
			jobs = append(jobs, job{ri, mi})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		mix := mixes[j.mixIdx]
		ob := o
		ob.RREpochs = rrs[j.rrIdx]
		seed := o.subSeed("abl-step", mix.Name(), fmt.Sprint(ob.RREpochs))
		return ob.SimSMT(SMTSpec{Mix: mix, Seed: seed, Ctrl: simsmt.NewBanditAgent(seed)}).Sim.SumIPC()
	})

	rows := make([]AblationRow, 0, len(rrs))
	for ri, rr := range rrs {
		rows = append(rows, AblationRow{
			Config: fmt.Sprintf("bandit step-RR = %d epochs", rr),
			Value:  stats.GeoMean(ipcs[ri*len(mixes) : (ri+1)*len(mixes)]),
		})
	}
	return AblationResult{
		Title:  "Ablation: initial round-robin bandit step length, SMT (§5.3)",
		Metric: "gmean sum-IPC",
		Rows:   rows,
	}
}

// AblationGamma sweeps the DUCB forgetting factor on the phase-changing
// mcf trace (the Fig. 7 adaptation scenario). γ = 1 is plain UCB.
func AblationGamma(o Options) AblationResult {
	app, err := trace.ByName("mcf06")
	if err != nil {
		return AblationResult{Title: "Ablation: gamma (mcf unavailable)"}
	}
	memCfg := mem.DefaultConfig()
	gammas := []float64{0.9, 0.99, 0.999, 0.9999, 1.0}
	ipcs := runJobs(o, gammas, func(gamma float64) float64 {
		var p core.Policy
		if gamma >= 1 {
			p = core.NewUCB(core.PrefetchC)
		} else {
			p = core.NewDUCB(core.PrefetchC, gamma)
		}
		ctrl := core.MustNew(core.Config{
			Arms: core.PrefetchArms, Policy: p, Normalize: true,
			Seed: o.subSeed("abl-gamma", fmt.Sprint(gamma)),
		})
		return o.runPrefetchCtrl(app, fmt.Sprintf("g%.4f", gamma), ctrl, memCfg).IPC
	})

	rows := make([]AblationRow, 0, len(gammas))
	for gi, g := range gammas {
		label := fmt.Sprintf("gamma = %.4f", g)
		if g >= 1 {
			label = "gamma = 1 (UCB)"
		}
		rows = append(rows, AblationRow{Config: label, Value: ipcs[gi]})
	}
	return AblationResult{
		Title:  "Ablation: DUCB forgetting factor on the phase-changing mcf trace",
		Metric: "IPC",
		Rows:   rows,
	}
}

// AblationArms compares the full Table 7 arm set against pruned subsets.
func AblationArms(o Options) AblationResult {
	apps := o.apps(trace.TuneSet())
	memCfg := mem.DefaultConfig()
	full := prefetch.Table7Arms()
	sets := []struct {
		name string
		arms []prefetch.ArmConfig
	}{
		{"11 arms (Table 7)", full},
		{"3 arms (off / stream-4 / max)", []prefetch.ArmConfig{full[1], full[0], full[10]}},
		{"2 arms (off / stream-4)", []prefetch.ArmConfig{full[1], full[0]}},
	}

	type job struct{ setIdx, appIdx int }
	jobs := make([]job, 0, len(sets)*len(apps))
	for si := range sets {
		for ai := range apps {
			jobs = append(jobs, job{si, ai})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		app := apps[j.appIdx]
		set := sets[j.setIdx]
		seed := o.subSeed("abl-arms", app.Name, set.name)
		ens := prefetch.NewEnsemble(set.arms)
		r := o.SimPrefetch(PrefetchSpec{Gen: app.New(seed), Seed: seed, Mem: memCfg,
			L2: ens, Ctrl: mustAlgo("ducb", ens.NumArms(), seed), Arms: ens})
		return r.Core.IPC()
	})

	rows := make([]AblationRow, 0, len(sets))
	for si, set := range sets {
		rows = append(rows, AblationRow{
			Config: set.name,
			Value:  stats.GeoMean(ipcs[si*len(apps) : (si+1)*len(apps)]),
		})
	}
	return AblationResult{
		Title:  "Ablation: arm-set size (Table 7 vs pruned subsets)",
		Metric: "gmean IPC",
		Rows:   rows,
	}
}

// AblationTargetLevel compares the Table 7 arm set against the §9
// extended set whose extra arms fill the LLC only, on big-working-set
// apps where L2 pollution costs the most.
func AblationTargetLevel(o Options) AblationResult {
	apps := append(o.apps(trace.BySuite("Ligra")), o.apps(trace.BySuite("CloudSuite"))...)
	memCfg := mem.DefaultConfig()

	variants := []bool{false, true}
	type job struct{ varIdx, appIdx int }
	jobs := make([]job, 0, len(variants)*len(apps))
	for vi := range variants {
		for ai := range apps {
			jobs = append(jobs, job{vi, ai})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		app := apps[j.appIdx]
		extended := variants[j.varIdx]
		seed := o.subSeed("abl-target", app.Name, fmt.Sprint(extended))
		var tun prefetch.Tunable
		if extended {
			tun = prefetch.NewExtendedEnsemble()
		} else {
			tun = prefetch.NewTable7Ensemble()
		}
		r := o.SimPrefetch(PrefetchSpec{Gen: app.New(seed), Seed: seed, Mem: memCfg,
			L2: tun, Ctrl: mustAlgo("ducb", tun.NumArms(), seed), Arms: tun})
		return r.Core.IPC()
	})

	gmean := func(vi int) float64 {
		return stats.GeoMean(ipcs[vi*len(apps) : (vi+1)*len(apps)])
	}
	return AblationResult{
		Title:  "Ablation: §9 target-cache-level arms (LLC-only fills) on big-footprint apps",
		Metric: "gmean IPC",
		Rows: []AblationRow{
			{Config: "11 arms, L2 fills", Value: gmean(0)},
			{Config: "14 arms incl. LLC-only fills", Value: gmean(1)},
		},
	}
}

// RenderAblations runs and renders every ablation. The ablations run one
// after another — each fans its own runs out through the worker pool, so
// nesting another pool here would only oversubscribe it.
func RenderAblations(o Options) string {
	var b strings.Builder
	for _, r := range []AblationResult{
		AblationNormalization(o),
		AblationRRRestart(o),
		AblationStepRR(o),
		AblationGamma(o),
		AblationArms(o),
		AblationTargetLevel(o),
	} {
		b.WriteString(r.Render())
		b.WriteByte('\n')
	}
	return b.String()
}
