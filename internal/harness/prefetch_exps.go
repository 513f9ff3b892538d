package harness

import (
	"fmt"
	"sort"
	"strings"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
	"microbandit/internal/stats"
	"microbandit/internal/trace"
)

// ---------------------------------------------------------------------
// Fig. 2 — temporal homogeneity of Pythia's action space

// Fig2Row is one application's action-frequency measurement.
type Fig2Row struct {
	App      string
	Top1Frac float64
	Top2Frac float64 // cumulative top-2 fraction
}

// Fig2Result reproduces Fig. 2: the frequency of the top-2 most selected
// Pythia actions per SPEC application.
type Fig2Result struct {
	Rows    []Fig2Row
	AvgTop1 float64
	AvgTop2 float64
}

// Fig2 profiles Pythia's action selections on the SPEC-style apps.
func Fig2(o Options) Fig2Result {
	apps := o.apps(trace.TuneSet())
	type out struct {
		row Fig2Row
		ok  bool
	}
	rows := runJobs(o, apps, func(app trace.App) out {
		seed := o.subSeed("fig2", app.Name)
		py := prefetch.NewPythia(seed)
		o.SimPrefetch(PrefetchSpec{Gen: app.New(seed), Seed: seed, Mem: mem.DefaultConfig(), L2: py})

		counts := py.ActionCounts()
		sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
		var total int64
		for _, v := range counts {
			total += v
		}
		if total == 0 {
			return out{}
		}
		top1 := float64(counts[0]) / float64(total)
		top2 := float64(counts[0]+counts[1]) / float64(total)
		return out{row: Fig2Row{App: app.Name, Top1Frac: top1, Top2Frac: top2}, ok: true}
	})

	res := Fig2Result{Rows: make([]Fig2Row, 0, len(apps))}
	for _, r := range rows {
		if r.ok {
			res.Rows = append(res.Rows, r.row)
		}
	}
	var s1, s2 float64
	for _, r := range res.Rows {
		s1 += r.Top1Frac
		s2 += r.Top2Frac
	}
	if n := float64(len(res.Rows)); n > 0 {
		res.AvgTop1, res.AvgTop2 = s1/n, s2/n
	}
	return res
}

// Render formats the figure as a text table.
func (r Fig2Result) Render() string {
	t := stats.NewTable("Fig. 2: frequency of Pythia's top-2 actions", "app", "top1 %", "top1+2 %")
	for _, row := range r.Rows {
		t.AddFloatRow(row.App, "%.1f", row.Top1Frac*100, row.Top2Frac*100)
	}
	t.AddFloatRow("average", "%.1f", r.AvgTop1*100, r.AvgTop2*100)
	return t.Render()
}

// ---------------------------------------------------------------------
// Shared static-arm oracle sweep

// bestStaticPrefetchAll runs every Table 7 arm statically for every app —
// one flat parallel sweep — and returns each app's best IPC and arm (the
// §6.4 oracle). Ties resolve toward the lower arm index, matching a
// serial ascending scan.
func (o Options) bestStaticPrefetchAll(apps []trace.App, memCfg mem.Config) (bestIPC []float64, bestArm []int) {
	arms := prefetch.NewTable7Ensemble().NumArms()
	type job struct{ appIdx, arm int }
	jobs := make([]job, 0, len(apps)*arms)
	for ai := range apps {
		for arm := 0; arm < arms; arm++ {
			jobs = append(jobs, job{ai, arm})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		return o.runPrefetchCtrl(apps[j.appIdx], fmt.Sprintf("static-%d", j.arm),
			core.FixedArm(j.arm), memCfg).IPC
	})
	bestIPC = make([]float64, len(apps))
	bestArm = make([]int, len(apps))
	for ai := range apps {
		bestIPC[ai], bestArm[ai] = -1, -1
		for arm := 0; arm < arms; arm++ {
			if ipc := ipcs[ai*arms+arm]; ipc > bestIPC[ai] {
				bestIPC[ai], bestArm[ai] = ipc, arm
			}
		}
	}
	return bestIPC, bestArm
}

// ---------------------------------------------------------------------
// Table 8 — bandit algorithms vs the best static arm (prefetch tune set)

// Table8Result holds, per algorithm, the min/max/gmean IPC as a
// percentage of the best-static-arm IPC.
type Table8Result struct {
	Algos map[string]stats.Summary
	Order []string
}

// Table8 reproduces the tune-set comparison: Pythia, Single, Periodic,
// ε-Greedy, UCB, DUCB against the best static arm.
func Table8(o Options) Table8Result {
	apps := o.apps(trace.TuneSet())
	memCfg := mem.DefaultConfig()
	best, _ := o.bestStaticPrefetchAll(apps, memCfg)

	cols := append([]string{"Pythia"}, banditAlgoOrder...)
	type job struct{ appIdx, col int }
	jobs := make([]job, 0, len(apps)*len(cols))
	for ai := range apps {
		for ci := range cols {
			jobs = append(jobs, job{ai, ci})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		app := apps[j.appIdx]
		name := cols[j.col]
		if name == "Pythia" {
			return o.runPrefetch(app, PfPythia, memCfg).IPC
		}
		ctrl := newAlgo(name, core.PrefetchArms, o.subSeed("t8", app.Name), core.PrefetchC, core.PrefetchGamma)
		return o.runPrefetchCtrl(app, name, ctrl, memCfg).IPC
	})

	algoRatios := make(map[string][]float64, len(cols))
	for ai := range apps {
		if best[ai] <= 0 {
			continue
		}
		for ci, name := range cols {
			algoRatios[name] = append(algoRatios[name], ipcs[ai*len(cols)+ci]/best[ai])
		}
	}

	out := Table8Result{
		Algos: map[string]stats.Summary{},
		Order: []string{"Pythia", "Single", "Periodic", "eps-Greedy", "UCB", "DUCB"},
	}
	for name, ratios := range algoRatios {
		out.Algos[name] = stats.Summarize(ratios).AsPercent()
	}
	return out
}

// Render formats the table in the paper's layout.
func (r Table8Result) Render() string {
	t := stats.NewTable("Table 8: IPC as % of best static arm (prefetch tune set)",
		append([]string{""}, r.Order...)...)
	addRow := func(label string, pick func(stats.Summary) float64) {
		cells := []string{label}
		for _, name := range r.Order {
			cells = append(cells, fmt.Sprintf("%.1f", pick(r.Algos[name])))
		}
		t.AddRow(cells...)
	}
	addRow("min", func(s stats.Summary) float64 { return s.Min })
	addRow("max", func(s stats.Summary) float64 { return s.Max })
	addRow("gmean", func(s stats.Summary) float64 { return s.GMean })
	return t.Render()
}

// ---------------------------------------------------------------------
// Fig. 8 / Fig. 11 — single-core comparison across suites

// Fig8Result holds per-suite and overall geometric-mean IPC, normalized
// to no-prefetching, per prefetcher.
type Fig8Result struct {
	Title  string
	Kinds  []string
	Suites []string
	// Norm[kind][suite] is the gmean normalized IPC; Norm[kind]["all"]
	// is the overall gmean.
	Norm map[string]map[string]float64
}

var fig8Kinds = []PfKind{PfStride, PfBingo, PfMLOP, PfPythia, PfBandit}

// Fig8 reproduces the single-core suite comparison with the Table 4
// hierarchy.
func Fig8(o Options) Fig8Result {
	return singleCoreComparison(o, "Fig. 8: single-core IPC normalized to no-prefetching", mem.DefaultConfig())
}

// Fig11 repeats Fig. 8 with the alternative (1 MB L2 / 1.5 MB LLC)
// hierarchy and no retuning.
func Fig11(o Options) Fig8Result {
	r := singleCoreComparison(o, "Fig. 11: single-core IPC, alternative cache hierarchy", mem.AltCacheConfig())
	return r
}

func singleCoreComparison(o Options, title string, memCfg mem.Config) Fig8Result {
	res := Fig8Result{
		Title:  title,
		Kinds:  make([]string, 0, len(fig8Kinds)),
		Suites: trace.SuiteOrder,
		Norm:   map[string]map[string]float64{},
	}
	apps := o.apps(trace.Catalog())

	// One job per (prefetcher, app); the no-prefetch baseline leads the
	// job list so base[i] = ipcs[i].
	kinds := append([]PfKind{PfNone}, fig8Kinds...)
	type job struct{ kindIdx, appIdx int }
	jobs := make([]job, 0, len(kinds)*len(apps))
	for ki := range kinds {
		for ai := range apps {
			jobs = append(jobs, job{ki, ai})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		return o.runPrefetch(apps[j.appIdx], kinds[j.kindIdx], memCfg).IPC
	})

	base := ipcs[:len(apps)]
	for ki, kind := range fig8Kinds {
		row := ipcs[(ki+1)*len(apps) : (ki+2)*len(apps)]
		perSuite := map[string][]float64{}
		all := make([]float64, 0, len(apps))
		for ai, app := range apps {
			n := row[ai] / base[ai]
			perSuite[app.Suite] = append(perSuite[app.Suite], n)
			all = append(all, n)
		}
		res.Kinds = append(res.Kinds, string(kind))
		m := map[string]float64{"all": stats.GeoMean(all)}
		for s, v := range perSuite {
			m[s] = stats.GeoMean(v)
		}
		res.Norm[string(kind)] = m
	}
	return res
}

// Render formats the per-suite table.
func (r Fig8Result) Render() string {
	headers := append([]string{"prefetcher"}, r.Suites...)
	headers = append(headers, "ALL")
	t := stats.NewTable(r.Title, headers...)
	for _, kind := range r.Kinds {
		cells := []string{kind}
		for _, s := range r.Suites {
			cells = append(cells, fmt.Sprintf("%.3f", r.Norm[kind][s]))
		}
		cells = append(cells, fmt.Sprintf("%.3f", r.Norm[kind]["all"]))
		t.AddRow(cells...)
	}
	return t.Render()
}

// Speedup returns kind a's gmean IPC relative to kind b's, in percent
// (the paper's "+x%" comparisons).
func (r Fig8Result) Speedup(a, b string) float64 {
	return stats.SpeedupPercent(r.Norm[a]["all"] / r.Norm[b]["all"])
}

// ---------------------------------------------------------------------
// Fig. 9 — prefetch classification

// Fig9Row is one prefetcher's aggregate classification, normalized to the
// no-prefetching LLC miss count.
type Fig9Row struct {
	Kind      string
	LLCMisses float64 // remaining demand LLC misses (normalized)
	Timely    float64
	Late      float64
	Wrong     float64
	CoverFrac float64 // fraction of baseline misses covered timely
}

// Fig9Result reproduces the classification figure.
type Fig9Result struct {
	Rows []Fig9Row
}

// Fig9 classifies prefetches for each prefetcher across the app set.
func Fig9(o Options) Fig9Result {
	apps := o.apps(trace.Catalog())
	memCfg := mem.DefaultConfig()

	kinds := append([]PfKind{PfNone}, fig8Kinds...)
	type job struct{ kindIdx, appIdx int }
	jobs := make([]job, 0, len(kinds)*len(apps))
	for ki := range kinds {
		for ai := range apps {
			jobs = append(jobs, job{ki, ai})
		}
	}
	runs := runJobs(o, jobs, func(j job) PrefetchRun {
		return o.runPrefetch(apps[j.appIdx], kinds[j.kindIdx], memCfg)
	})

	var baseMisses int64
	for _, r := range runs[:len(apps)] {
		baseMisses += r.Stats.LLCMisses
	}
	if baseMisses == 0 {
		baseMisses = 1
	}
	res := Fig9Result{Rows: make([]Fig9Row, 0, len(fig8Kinds))}
	for ki, kind := range fig8Kinds {
		var misses int64
		var cl mem.Classification
		for _, r := range runs[(ki+1)*len(apps) : (ki+2)*len(apps)] {
			misses += r.Stats.LLCMisses
			cl.Timely += r.Class.Timely
			cl.Late += r.Class.Late
			cl.Wrong += r.Class.Wrong
		}
		res.Rows = append(res.Rows, Fig9Row{
			Kind:      string(kind),
			LLCMisses: float64(misses) / float64(baseMisses),
			Timely:    float64(cl.Timely) / float64(baseMisses),
			Late:      float64(cl.Late) / float64(baseMisses),
			Wrong:     float64(cl.Wrong) / float64(baseMisses),
			CoverFrac: float64(cl.Timely) / float64(baseMisses),
		})
	}
	return res
}

// Render formats the classification table.
func (r Fig9Result) Render() string {
	t := stats.NewTable("Fig. 9: LLC misses and prefetches (normalized to no-prefetch LLC misses)",
		"prefetcher", "LLC misses", "timely", "late", "wrong")
	for _, row := range r.Rows {
		t.AddFloatRow(row.Kind, "%.3f", row.LLCMisses, row.Timely, row.Late, row.Wrong)
	}
	return t.Render()
}

// ---------------------------------------------------------------------
// Fig. 10 — DRAM bandwidth sweep

// Fig10Result compares Pythia and Bandit across channel rates.
type Fig10Result struct {
	MTPS   []float64
	Pythia []float64 // gmean IPC normalized to no-prefetch at same MTPS
	Bandit []float64
}

// Fig10 sweeps the DRAM transfer rate (150/600/2400/9600 MTPS).
func Fig10(o Options) Fig10Result {
	res := Fig10Result{MTPS: []float64{150, 600, 2400, 9600}}
	apps := o.apps(trace.Catalog())

	kinds := []PfKind{PfNone, PfPythia, PfBandit}
	type job struct{ mtpsIdx, appIdx, kindIdx int }
	jobs := make([]job, 0, len(res.MTPS)*len(apps)*len(kinds))
	for mi := range res.MTPS {
		for ai := range apps {
			for ki := range kinds {
				jobs = append(jobs, job{mi, ai, ki})
			}
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		memCfg := mem.DefaultConfig()
		memCfg.MTPS = res.MTPS[j.mtpsIdx]
		return o.runPrefetch(apps[j.appIdx], kinds[j.kindIdx], memCfg).IPC
	})

	res.Pythia = make([]float64, 0, len(res.MTPS))
	res.Bandit = make([]float64, 0, len(res.MTPS))
	i := 0
	for range res.MTPS {
		py := make([]float64, 0, len(apps))
		bd := make([]float64, 0, len(apps))
		for range apps {
			base, p, b := ipcs[i], ipcs[i+1], ipcs[i+2]
			i += 3
			if base <= 0 {
				continue
			}
			py = append(py, p/base)
			bd = append(bd, b/base)
		}
		res.Pythia = append(res.Pythia, stats.GeoMean(py))
		res.Bandit = append(res.Bandit, stats.GeoMean(bd))
	}
	return res
}

// Render formats the sweep.
func (r Fig10Result) Render() string {
	t := stats.NewTable("Fig. 10: gmean IPC (normalized to no-prefetch) vs DRAM bandwidth",
		"MTPS", "Pythia", "Bandit", "Bandit vs Pythia %")
	for i := range r.MTPS {
		t.AddFloatRow(fmt.Sprintf("%.0f", r.MTPS[i]), "%.3f",
			r.Pythia[i], r.Bandit[i], stats.SpeedupPercent(r.Bandit[i]/r.Pythia[i]))
	}
	return t.Render()
}

// ---------------------------------------------------------------------
// Fig. 12 — multi-level prefetching

// Fig12Result compares L1+L2 prefetcher combinations.
type Fig12Result struct {
	Kinds []string
	Norm  []float64 // gmean IPC normalized to no prefetching at all
}

// Fig12 evaluates Stride_Stride, IPCP, Stride_Pythia, and Stride_Bandit.
func Fig12(o Options) Fig12Result {
	apps := o.apps(trace.Catalog())
	memCfg := mem.DefaultConfig()

	type combo struct {
		name string
		l1   func(seed uint64) prefetch.Prefetcher
		l2   PfKind
	}
	l1Stride := func(uint64) prefetch.Prefetcher { return prefetch.NewIPStride(48, 2) }
	combos := []combo{
		{"Stride_Stride", l1Stride, PfStride},
		{"IPCP", func(uint64) prefetch.Prefetcher { return prefetch.NewIPCP(64, 3) }, PfKind("ipcpL2")},
		{"Stride_Pythia", l1Stride, PfPythia},
		{"Stride_Bandit", l1Stride, PfBandit},
	}

	// comboIdx -1 is the no-prefetch baseline.
	type job struct{ comboIdx, appIdx int }
	jobs := make([]job, 0, (len(combos)+1)*len(apps))
	for ci := -1; ci < len(combos); ci++ {
		for ai := range apps {
			jobs = append(jobs, job{ci, ai})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		app := apps[j.appIdx]
		if j.comboIdx < 0 {
			return o.runPrefetch(app, PfNone, memCfg).IPC
		}
		cb := combos[j.comboIdx]
		seed := o.subSeed("fig12", app.Name, cb.name)
		spec := PrefetchSpec{Gen: app.New(seed), Seed: seed, Mem: memCfg, L1: cb.l1(seed)}
		if cb.l2 == "ipcpL2" {
			spec.L2 = prefetch.NewIPCP(64, 4)
		} else {
			spec.L2, spec.Ctrl, spec.Arms = newPf(cb.l2, seed)
		}
		r := o.SimPrefetch(spec)
		return r.Core.IPC()
	})

	base := ipcs[:len(apps)]
	res := Fig12Result{
		Kinds: make([]string, 0, len(combos)),
		Norm:  make([]float64, 0, len(combos)),
	}
	for ci, cb := range combos {
		row := ipcs[(ci+1)*len(apps) : (ci+2)*len(apps)]
		norm := make([]float64, 0, len(apps))
		for ai := range apps {
			norm = append(norm, row[ai]/base[ai])
		}
		res.Kinds = append(res.Kinds, cb.name)
		res.Norm = append(res.Norm, stats.GeoMean(norm))
	}
	return res
}

// Render formats the multi-level comparison.
func (r Fig12Result) Render() string {
	t := stats.NewTable("Fig. 12: multi-level prefetching, gmean IPC normalized to no-prefetching",
		"combo", "gmean")
	for i, k := range r.Kinds {
		t.AddFloatRow(k, "%.3f", r.Norm[i])
	}
	return t.Render()
}

// ---------------------------------------------------------------------
// Fig. 14 — four-core homogeneous mixes

// Fig14Result compares prefetchers on 4-core mixes: homogeneous (the
// same app on every core) and heterogeneous (four different apps per
// mix), per §6.2.
type Fig14Result struct {
	Kinds      []string
	Norm       []float64 // homogeneous: gmean sum-IPC normalized to no-prefetch
	HeteroNorm []float64 // heterogeneous mixes, same normalization
}

// fig14Workload is one 4-core workload: the app run on each core.
type fig14Workload struct {
	name string
	apps [4]trace.App
}

// Fig14 runs the homogeneous and heterogeneous 4-core comparisons.
func Fig14(o Options) Fig14Result {
	apps := o.apps(trace.Catalog())
	memCfg := mem.DefaultConfig()
	instsPerCore := o.Insts / 4
	if instsPerCore < 50_000 {
		instsPerCore = 50_000
	}

	// run4 is one job: the four cores of a workload share an LLC/DRAM
	// pool and must advance in lockstep, so they stay on one goroutine;
	// parallelism comes from independent (workload, prefetcher) pairs.
	run4 := func(w fig14Workload, kind PfKind) float64 {
		shared := mem.NewShared(memCfg, 4)
		runners := make([]*cpu.Runner, 0, 4)
		for coreID := 0; coreID < 4; coreID++ {
			app := w.apps[coreID]
			seed := o.subSeed("fig14", w.name, app.Name, string(kind), fmt.Sprint(coreID))
			hier := mem.NewCoreHierarchy(memCfg, shared)
			c := cpu.New(cpu.DefaultConfig(), hier, o.gen(app.New(seed), seed))
			l2, ctrl, tun := newPf(kind, seed)
			if tun != nil {
				// Multi-core bandits use the §4.3 round-robin restart.
				ctrl = ducbRR(tun.NumArms(), seed, core.RRRestartProb4Core)
			}
			r := cpu.NewRunner(c, l2, ctrl, tun)
			r.StepL2 = o.StepL2
			runners = append(runners, r)
		}
		return o.runMultiCore(runners, instsPerCore)
	}

	// Homogeneous: every core runs the same app.
	var homo []fig14Workload
	for _, app := range apps {
		homo = append(homo, fig14Workload{name: app.Name, apps: [4]trace.App{app, app, app, app}})
	}
	// Heterogeneous: rotate through the app list, four per mix.
	var hetero []fig14Workload
	for i := 0; i+3 < len(apps); i += 4 {
		w := fig14Workload{apps: [4]trace.App{apps[i], apps[i+1], apps[i+2], apps[i+3]}}
		w.name = fmt.Sprintf("mix%d", i/4)
		hetero = append(hetero, w)
	}

	eval := func(loads []fig14Workload) []float64 {
		kinds := append([]PfKind{PfNone}, fig8Kinds...)
		type job struct{ kindIdx, wIdx int }
		jobs := make([]job, 0, len(kinds)*len(loads))
		for ki := range kinds {
			for wi := range loads {
				jobs = append(jobs, job{ki, wi})
			}
		}
		sums := runJobs(o, jobs, func(j job) float64 {
			return run4(loads[j.wIdx], kinds[j.kindIdx])
		})
		base := sums[:len(loads)]
		out := make([]float64, 0, len(fig8Kinds))
		for ki := range fig8Kinds {
			row := sums[(ki+1)*len(loads) : (ki+2)*len(loads)]
			norm := make([]float64, 0, len(loads))
			for wi := range loads {
				if base[wi] <= 0 {
					continue
				}
				norm = append(norm, row[wi]/base[wi])
			}
			out = append(out, stats.GeoMean(norm))
		}
		return out
	}

	res := Fig14Result{}
	for _, kind := range fig8Kinds {
		res.Kinds = append(res.Kinds, string(kind))
	}
	res.Norm = eval(homo)
	if len(hetero) > 0 {
		res.HeteroNorm = eval(hetero)
	}
	return res
}

// Render formats the 4-core comparison.
func (r Fig14Result) Render() string {
	headers := []string{"prefetcher", "homogeneous"}
	if len(r.HeteroNorm) > 0 {
		headers = append(headers, "heterogeneous")
	}
	t := stats.NewTable("Fig. 14: four-core mixes, gmean sum-IPC normalized to no-prefetching",
		headers...)
	for i, k := range r.Kinds {
		cells := []string{k, fmt.Sprintf("%.3f", r.Norm[i])}
		if len(r.HeteroNorm) > 0 {
			cells = append(cells, fmt.Sprintf("%.3f", r.HeteroNorm[i]))
		}
		t.AddRow(cells...)
	}
	return t.Render()
}

// ---------------------------------------------------------------------
// Fig. 7 (prefetch panels) — exploration traces

// ArmPoint is one (cycle, arm) sample of an exploration trace.
type ArmPoint struct {
	Cycle int64
	Arm   int
}

// Fig7Panel is one exploration trace: arm index over time plus the run's
// IPC.
type Fig7Panel struct {
	Algo string
	App  string
	IPC  float64
	Arms []ArmPoint
}

// Fig7Prefetch produces the prefetch-side exploration panels (cactus and
// mcf under BestStatic, Single, UCB, and DUCB).
func Fig7Prefetch(o Options) []Fig7Panel {
	memCfg := mem.DefaultConfig()
	var apps []trace.App
	for _, appName := range []string{"cactusADM", "mcf06"} {
		if app, err := trace.ByName(appName); err == nil {
			apps = append(apps, app)
		}
	}
	// Phase 1: the static oracle that defines the BestStatic panel.
	_, bestArm := o.bestStaticPrefetchAll(apps, memCfg)

	// Phase 2: the exploration-trace runs, one job per (app, algorithm).
	algos := []string{"BestStatic", "Single", "UCB", "DUCB"}
	type job struct{ appIdx, algoIdx int }
	jobs := make([]job, 0, len(apps)*len(algos))
	for ai := range apps {
		for gi := range algos {
			jobs = append(jobs, job{ai, gi})
		}
	}
	return runJobs(o, jobs, func(j job) Fig7Panel {
		app := apps[j.appIdx]
		name := algos[j.algoIdx]
		var ctrl core.Controller
		if name == "BestStatic" {
			ctrl = core.FixedArm(bestArm[j.appIdx])
		} else {
			ctrl = newAlgo(name, core.PrefetchArms, o.subSeed("f7", app.Name), core.PrefetchC, core.PrefetchGamma)
		}
		seed := o.subSeed("fig7", app.Name, name)
		ens := prefetch.NewTable7Ensemble()
		r := o.SimPrefetch(PrefetchSpec{Gen: app.New(seed), Seed: seed, Mem: memCfg,
			L2: ens, Ctrl: ctrl, Arms: ens, RecordArms: true})
		panel := Fig7Panel{Algo: name, App: app.Name, IPC: r.Core.IPC()}
		panel.Arms = make([]ArmPoint, 0, len(r.ArmTrace))
		for _, s := range r.ArmTrace {
			panel.Arms = append(panel.Arms, ArmPoint{Cycle: s.Cycle, Arm: s.Arm})
		}
		return panel
	})
}

// RenderFig7 plots the exploration panels as text.
func RenderFig7(panels []Fig7Panel) string {
	var b strings.Builder
	b.WriteString("Fig. 7: exploration traces (arm index over time)\n")
	for _, p := range panels {
		series := stats.Series{Name: fmt.Sprintf("%s/%s", p.Algo, p.App)}
		for _, s := range p.Arms {
			series.Append(float64(s.Cycle), float64(s.Arm))
		}
		fmt.Fprintf(&b, "%s (IPC %.3f, %d selections)\n", series.Name, p.IPC, len(p.Arms))
		b.WriteString(stats.LinePlot("", []stats.Series{series}, 8, 64))
	}
	return b.String()
}
