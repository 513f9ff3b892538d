package harness

import (
	"fmt"
	"strings"

	"microbandit/internal/core"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
	"microbandit/internal/simsmt"
	"microbandit/internal/smtwork"
	"microbandit/internal/stats"
	"microbandit/internal/trace"
)

// ExtrasResult holds the beyond-the-evaluation comparisons: the §8 BOP
// contrast (single best offset vs the orchestrated ensemble under
// imperfect temporal homogeneity) and the §9 hierarchical-bandit
// extension (a high-level bandit selecting among DUCB hyperparameter
// variants).
type ExtrasResult struct {
	// BOPNorm and BanditNorm are gmean IPCs normalized to no-prefetch.
	BOPNorm, BanditNorm float64
	// FlatNorm and MetaNorm compare the single paper-default DUCB agent
	// against the hierarchical sweep agent, gmean IPC normalized to
	// no-prefetch on the same apps.
	FlatNorm, MetaNorm float64
	// MetaLevels reports, per app, which hyperparameter level the
	// high-level bandit ended up preferring.
	MetaLevels map[string]int

	// SMT resource-distribution comparison (§8): ARPA vs Choi vs Bandit,
	// gmean sum-IPC over the tune mixes.
	ARPAIPC, ChoiIPC, BanditSMTIPC float64
}

// metaPairs are the (c, γ) variants the §9 hierarchical agent sweeps.
var metaPairs = [][2]float64{
	{core.PrefetchC, 0.99},
	{core.PrefetchC, core.PrefetchGamma},
	{4 * core.PrefetchC, core.PrefetchGamma},
}

// Extras runs the BOP and hierarchical-bandit comparisons on the
// catalog apps.
func Extras(o Options) ExtrasResult {
	apps := o.apps(trace.Catalog())
	memCfg := mem.DefaultConfig()
	res := ExtrasResult{MetaLevels: map[string]int{}}

	// One job per app: the dependent runs (base gates everything, the
	// meta level reads back from the controller) stay together on one
	// goroutine; parallelism comes from independent apps.
	type appOut struct {
		ok              bool // base IPC was positive
		bop, flat, meta float64
		level           int
		metaOK          bool
	}
	outs := runJobs(o, apps, func(app trace.App) appOut {
		base := o.runPrefetch(app, PfNone, memCfg).IPC
		if base <= 0 {
			return appOut{}
		}
		out := appOut{ok: true}

		// BOP: single learned offset, degree 1.
		seed := o.subSeed("extras", app.Name)
		r := o.SimPrefetch(PrefetchSpec{Gen: app.New(seed), Seed: seed, Mem: memCfg, L2: prefetch.NewBOP()})
		out.bop = r.Core.IPC() / base

		// Paper-default (flat) Bandit.
		out.flat = o.runPrefetch(app, PfBandit, memCfg).IPC / base

		// Hierarchical bandit over hyperparameter variants.
		mctrl, err := core.NewDUCBSweepMeta(core.PrefetchArms, metaPairs, true, seed)
		if err != nil {
			return out
		}
		out.meta = o.runPrefetchCtrl(app, "meta", mctrl, memCfg).IPC / base
		out.level = mctrl.BestLevel()
		out.metaOK = true
		return out
	})

	bop := make([]float64, 0, len(apps))
	bandit := make([]float64, 0, len(apps))
	flat := make([]float64, 0, len(apps))
	meta := make([]float64, 0, len(apps))
	for ai, app := range apps {
		out := outs[ai]
		if !out.ok {
			continue
		}
		bop = append(bop, out.bop)
		bandit = append(bandit, out.flat)
		flat = append(flat, out.flat)
		if out.metaOK {
			meta = append(meta, out.meta)
			res.MetaLevels[app.Name] = out.level
		}
	}
	res.BOPNorm = stats.GeoMean(bop)
	res.BanditNorm = stats.GeoMean(bandit)
	res.FlatNorm = stats.GeoMean(flat)
	res.MetaNorm = stats.GeoMean(meta)

	// §8 SMT comparison: ARPA's efficiency-proportional partitioning vs
	// Choi's hill-climbed threshold vs the Bandit on top of Hill Climbing.
	mixes := o.mixes(smtwork.TuneMixes())
	smtRuns := runJobs(o, mixes, func(mix smtwork.Mix) [3]float64 {
		seed := o.subSeed("extras-arpa", mix.Name())
		return [3]float64{
			o.SimSMT(SMTSpec{Mix: mix, Seed: seed, Policy: simsmt.ChoiPolicy, ARPA: true}).Sim.SumIPC(),
			o.simSMTNamed(mix, "choi", 0).Sim.SumIPC(),
			o.simSMTNamed(mix, "bandit", seed).Sim.SumIPC(),
		}
	})
	arpa := make([]float64, 0, len(mixes))
	choi := make([]float64, 0, len(mixes))
	banditSMT := make([]float64, 0, len(mixes))
	for _, run := range smtRuns {
		arpa = append(arpa, run[0])
		choi = append(choi, run[1])
		banditSMT = append(banditSMT, run[2])
	}
	res.ARPAIPC = stats.GeoMean(arpa)
	res.ChoiIPC = stats.GeoMean(choi)
	res.BanditSMTIPC = stats.GeoMean(banditSMT)
	return res
}

// Render formats the extras comparison.
func (r ExtrasResult) Render() string {
	var b strings.Builder
	t := stats.NewTable("Extensions: BOP contrast (§8) and hierarchical bandit (§9), gmean IPC vs no-prefetch",
		"config", "gmean")
	t.AddFloatRow("BOP (single best offset)", "%.3f", r.BOPNorm)
	t.AddFloatRow("Bandit (Table 7 ensemble)", "%.3f", r.BanditNorm)
	t.AddFloatRow("Bandit, flat DUCB", "%.3f", r.FlatNorm)
	t.AddFloatRow("Bandit, hierarchical (3 hyperparameter levels)", "%.3f", r.MetaNorm)
	b.WriteString(t.Render())
	t2 := stats.NewTable("SMT resource distribution (§8): gmean sum-IPC over tune mixes",
		"method", "gmean sum-IPC")
	t2.AddFloatRow("ARPA (efficiency partition)", "%.3f", r.ARPAIPC)
	t2.AddFloatRow("Choi (hill-climbed threshold)", "%.3f", r.ChoiIPC)
	t2.AddFloatRow("Bandit over Hill Climbing", "%.3f", r.BanditSMTIPC)
	b.WriteString(t2.Render())
	if len(r.MetaLevels) > 0 {
		b.WriteString("preferred hyperparameter level per app:\n")
		for _, name := range sortedKeys(r.MetaLevels) {
			p := metaPairs[r.MetaLevels[name]]
			fmt.Fprintf(&b, "  %-14s level %d (c=%.2f, gamma=%.4f)\n",
				name, r.MetaLevels[name], p[0], p[1])
		}
	}
	return b.String()
}
