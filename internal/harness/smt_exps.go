package harness

import (
	"fmt"
	"sort"
	"strings"

	"microbandit/internal/hw"
	"microbandit/internal/simsmt"
	"microbandit/internal/smtwork"
	"microbandit/internal/stats"
)

// ---------------------------------------------------------------------
// Fig. 5 — the fetch PG policy design space

// Fig5Row is one mix's best/worst static policy relative to Choi.
type Fig5Row struct {
	Mix        string
	BestPolicy string
	BestDelta  float64 // IPC change vs Choi, fraction (+0.13 = +13%)
	WorstDelta float64
}

// Fig5Result reproduces the design-space motivation: for each 2-thread
// mix, the best- and worst-performing of the 64 fetch PG policies,
// relative to the Choi policy (IC_1011).
type Fig5Result struct {
	Rows []Fig5Row
}

// Fig5 sweeps all 64 policies over the tune mixes. Policies here are
// static (no bandit), so Hill Climbing converges quickly and half the
// usual cycle budget suffices — this sweep is by far the largest run
// count in the harness (64 × mixes) and the biggest beneficiary of the
// worker pool.
func Fig5(o Options) Fig5Result {
	half := o
	half.SMTCycles = o.SMTCycles / 2
	if half.SMTCycles < 200_000 {
		half.SMTCycles = o.SMTCycles
	}
	o = half
	policies := simsmt.AllPolicies()
	mixes := o.mixes(smtwork.TuneMixes())

	// policyIdx -1 is the Choi reference run for that mix.
	type job struct{ mixIdx, policyIdx int }
	jobs := make([]job, 0, len(mixes)*(len(policies)+1))
	for mi := range mixes {
		for pi := -1; pi < len(policies); pi++ {
			jobs = append(jobs, job{mi, pi})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		mix := mixes[j.mixIdx]
		if j.policyIdx < 0 {
			return o.runSMTFixed(mix, "choi", simsmt.ChoiPolicy, true).SumIPC
		}
		p := policies[j.policyIdx]
		return o.runSMTFixed(mix, p.String(), p, true).SumIPC
	})

	res := Fig5Result{Rows: make([]Fig5Row, 0, len(mixes))}
	stride := len(policies) + 1
	for mi, mix := range mixes {
		choi := ipcs[mi*stride]
		if choi <= 0 {
			continue
		}
		bestD, worstD := -2.0, 2.0
		bestP := ""
		for pi, p := range policies {
			d := ipcs[mi*stride+1+pi]/choi - 1
			if d > bestD {
				bestD, bestP = d, p.String()
			}
			if d < worstD {
				worstD = d
			}
		}
		res.Rows = append(res.Rows, Fig5Row{
			Mix: mix.Name(), BestPolicy: bestP, BestDelta: bestD, WorstDelta: worstD,
		})
	}
	return res
}

// Render formats the design-space sweep.
func (r Fig5Result) Render() string {
	t := stats.NewTable("Fig. 5: best/worst fetch PG policy IPC change vs Choi (IC_1011)",
		"mix", "best policy", "best %", "worst %")
	for _, row := range r.Rows {
		t.AddRow(row.Mix, row.BestPolicy,
			fmt.Sprintf("%+.1f", row.BestDelta*100),
			fmt.Sprintf("%+.1f", row.WorstDelta*100))
	}
	return t.Render()
}

// ---------------------------------------------------------------------
// Shared static-arm oracle sweep

// bestStaticSMTAll runs every Table 1 arm statically (with Hill
// Climbing) for every mix — one flat parallel sweep — and returns each
// mix's best sum-IPC and arm. Ties resolve toward the lower arm index,
// matching a serial ascending scan.
func (o Options) bestStaticSMTAll(mixes []smtwork.Mix) (bestIPC []float64, bestArm []int) {
	arms := simsmt.Table1Arms()
	type job struct{ mixIdx, arm int }
	jobs := make([]job, 0, len(mixes)*len(arms))
	for mi := range mixes {
		for arm := range arms {
			jobs = append(jobs, job{mi, arm})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		return o.runSMTFixed(mixes[j.mixIdx], fmt.Sprintf("static-%d", j.arm),
			arms[j.arm], true).SumIPC
	})
	bestIPC = make([]float64, len(mixes))
	bestArm = make([]int, len(mixes))
	for mi := range mixes {
		bestIPC[mi], bestArm[mi] = -1, -1
		for arm := range arms {
			if ipc := ipcs[mi*len(arms)+arm]; ipc > bestIPC[mi] {
				bestIPC[mi], bestArm[mi] = ipc, arm
			}
		}
	}
	return bestIPC, bestArm
}

// ---------------------------------------------------------------------
// Table 9 — bandit algorithms vs best static arm (SMT tune set)

// Table9Result mirrors Table8Result with the Choi column added.
type Table9Result struct {
	Algos map[string]stats.Summary
	Order []string
}

// Table9 compares Choi, Single, Periodic, ε-Greedy, UCB, and DUCB to the
// best static Table 1 arm on the tune mixes.
func Table9(o Options) Table9Result {
	mixes := o.mixes(smtwork.TuneMixes())
	arms := len(simsmt.Table1Arms())
	best, _ := o.bestStaticSMTAll(mixes)

	cols := append([]string{"Choi"}, banditAlgoOrder...)
	type job struct{ mixIdx, col int }
	jobs := make([]job, 0, len(mixes)*len(cols))
	for mi := range mixes {
		for ci := range cols {
			jobs = append(jobs, job{mi, ci})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		mix := mixes[j.mixIdx]
		name := cols[j.col]
		if name == "Choi" {
			return o.runSMTFixed(mix, "choi", simsmt.ChoiPolicy, true).SumIPC
		}
		mk := banditAlgorithms(o.subSeed("t9", mix.Name()), arms, true)[name]
		return o.runSMTCtrl(mix, name, mk()).SumIPC
	})

	ratios := make(map[string][]float64, len(cols))
	for mi := range mixes {
		if best[mi] <= 0 {
			continue
		}
		for ci, name := range cols {
			ratios[name] = append(ratios[name], ipcs[mi*len(cols)+ci]/best[mi])
		}
	}
	out := Table9Result{
		Algos: map[string]stats.Summary{},
		Order: []string{"Choi", "Single", "Periodic", "eps-Greedy", "UCB", "DUCB"},
	}
	for name, rs := range ratios {
		out.Algos[name] = stats.Summarize(rs).AsPercent()
	}
	return out
}

// Render formats the table in the paper's layout.
func (r Table9Result) Render() string {
	t := stats.NewTable("Table 9: IPC as % of best static arm (SMT tune set)",
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
// Fig. 13 — Bandit vs Choi across all mixes

// Fig13Result holds the per-mix Bandit/Choi IPC ratios (sorted ascending,
// as in the paper's figure) plus the headline aggregates.
type Fig13Result struct {
	Mixes        []string  // sorted by ratio
	Ratios       []float64 // Bandit IPC / Choi IPC, same order
	GMeanVsChoi  float64
	GMeanVsIC    float64
	WinsOver4Pct int
	LossOver4Pct int
}

// Fig13 runs Bandit, Choi, and ICount on every mix, one job per run.
func Fig13(o Options) Fig13Result {
	mixes := o.mixes(smtwork.Mixes())
	const choiRun, icountRun, banditRun, runsPerMix = 0, 1, 2, 3
	type job struct{ mixIdx, run int }
	jobs := make([]job, 0, runsPerMix*len(mixes))
	for mi := range mixes {
		for k := 0; k < runsPerMix; k++ {
			jobs = append(jobs, job{mi, k})
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		mix := mixes[j.mixIdx]
		switch j.run {
		case choiRun:
			return o.runSMTFixed(mix, "choi", simsmt.ChoiPolicy, true).SumIPC
		case icountRun:
			return o.runSMTFixed(mix, "icount", simsmt.ICountPolicy, false).SumIPC
		default:
			return o.runSMTCtrl(mix, "bandit",
				simsmt.NewBanditAgent(o.subSeed("fig13", mix.Name()))).SumIPC
		}
	})

	type row struct {
		name  string
		ratio float64
		vsIC  float64
	}
	rows := make([]row, 0, len(mixes))
	for mi, mix := range mixes {
		run := ipcs[runsPerMix*mi : runsPerMix*(mi+1)]
		choi, ic, bandit := run[choiRun], run[icountRun], run[banditRun]
		// A failed job leaves a zero IPC; its mix is left out.
		if choi <= 0 || ic <= 0 || bandit <= 0 {
			continue
		}
		rows = append(rows, row{name: mix.Name(), ratio: bandit / choi, vsIC: bandit / ic})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ratio < rows[j].ratio })

	var res Fig13Result
	ratios := make([]float64, 0, len(rows))
	vsIC := make([]float64, 0, len(rows))
	for _, r := range rows {
		res.Mixes = append(res.Mixes, r.name)
		res.Ratios = append(res.Ratios, r.ratio)
		ratios = append(ratios, r.ratio)
		vsIC = append(vsIC, r.vsIC)
		if r.ratio > 1.04 {
			res.WinsOver4Pct++
		}
		if r.ratio < 0.96 {
			res.LossOver4Pct++
		}
	}
	res.GMeanVsChoi = stats.GeoMean(ratios)
	res.GMeanVsIC = stats.GeoMean(vsIC)
	return res
}

// Render plots the sorted ratio curve and the headline numbers.
func (r Fig13Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 13: Bandit IPC relative to Choi across 2-thread mixes (sorted)\n")
	s := stats.NewSeries("Bandit/Choi", r.Ratios)
	b.WriteString(stats.LinePlot("", []stats.Series{s}, 10, 64))
	fmt.Fprintf(&b, "gmean vs Choi: %+.1f%%   gmean vs ICount: %+.1f%%\n",
		stats.SpeedupPercent(r.GMeanVsChoi), stats.SpeedupPercent(r.GMeanVsIC))
	fmt.Fprintf(&b, "mixes >4%% better: %d   mixes >4%% worse: %d (of %d)\n",
		r.WinsOver4Pct, r.LossOver4Pct, len(r.Ratios))
	return b.String()
}

// ---------------------------------------------------------------------
// Fig. 15 — rename-stage activity breakdown

// Fig15Result holds the average fraction of cycles the rename stage spends
// in each state, for Bandit and Choi.
type Fig15Result struct {
	// Fractions[kind][state]; states ordered as StateOrder.
	Fractions map[string]map[string]float64
}

// Fig15StateOrder lists the paper's bar order.
var Fig15StateOrder = []string{"ROB full", "IQ full", "LQ full", "SQ full", "RF full", "stalled", "idle", "running"}

// Fig15 aggregates rename-stage accounting over the mixes.
func Fig15(o Options) Fig15Result {
	mixes := o.mixes(smtwork.Mixes())
	res := Fig15Result{Fractions: map[string]map[string]float64{}}

	kinds := []string{"Choi", "Bandit"}
	type job struct{ kindIdx, mixIdx int }
	jobs := make([]job, 0, len(kinds)*len(mixes))
	for ki := range kinds {
		for mi := range mixes {
			jobs = append(jobs, job{ki, mi})
		}
	}
	renames := runJobs(o, jobs, func(j job) simsmt.RenameStats {
		mix := mixes[j.mixIdx]
		if kinds[j.kindIdx] == "Choi" {
			return o.runSMTFixed(mix, "choi", simsmt.ChoiPolicy, true).Rename
		}
		return o.runSMTCtrl(mix, "bandit",
			simsmt.NewBanditAgent(o.subSeed("fig15", mix.Name()))).Rename
	})

	for ki, kind := range kinds {
		var sum simsmt.RenameStats
		for _, rs := range renames[ki*len(mixes) : (ki+1)*len(mixes)] {
			sum.StallROB += rs.StallROB
			sum.StallIQ += rs.StallIQ
			sum.StallLQ += rs.StallLQ
			sum.StallSQ += rs.StallSQ
			sum.StallRF += rs.StallRF
			sum.Idle += rs.Idle
			sum.Running += rs.Running
		}
		total := float64(sum.Total())
		if total == 0 {
			total = 1
		}
		res.Fractions[kind] = map[string]float64{
			"ROB full": float64(sum.StallROB) / total,
			"IQ full":  float64(sum.StallIQ) / total,
			"LQ full":  float64(sum.StallLQ) / total,
			"SQ full":  float64(sum.StallSQ) / total,
			"RF full":  float64(sum.StallRF) / total,
			"stalled":  float64(sum.Stalled()) / total,
			"idle":     float64(sum.Idle) / total,
			"running":  float64(sum.Running) / total,
		}
	}
	return res
}

// Render formats the breakdown table.
func (r Fig15Result) Render() string {
	t := stats.NewTable("Fig. 15: rename-stage cycle breakdown (% of cycles)",
		append([]string{"policy"}, Fig15StateOrder...)...)
	for _, kind := range []string{"Choi", "Bandit"} {
		cells := []string{kind}
		for _, s := range Fig15StateOrder {
			cells = append(cells, fmt.Sprintf("%.1f", r.Fractions[kind][s]*100))
		}
		t.AddRow(cells...)
	}
	return t.Render()
}

// ---------------------------------------------------------------------
// Fig. 7 (SMT panels)

// Fig7SMT produces the SMT-side exploration panels (gcc-lbm and
// cactuBSSN-lbm under BestStatic, Single, UCB, DUCB).
func Fig7SMT(o Options) []Fig7Panel {
	var mixes []smtwork.Mix
	for _, pair := range [][2]string{{"gcc", "lbm"}, {"cactuBSSN", "lbm"}} {
		a, errA := smtwork.ByName(pair[0])
		b, errB := smtwork.ByName(pair[1])
		if errA != nil || errB != nil {
			continue
		}
		mixes = append(mixes, smtwork.Mix{A: a, B: b})
	}
	// Phase 1: the static oracle that defines the BestStatic panel.
	_, bestArm := o.bestStaticSMTAll(mixes)

	// Phase 2: the exploration-trace runs, one job per (mix, algorithm).
	algos := []string{"BestStatic", "Single", "UCB", "DUCB"}
	type job struct{ mixIdx, algoIdx int }
	jobs := make([]job, 0, len(mixes)*len(algos))
	for mi := range mixes {
		for gi := range algos {
			jobs = append(jobs, job{mi, gi})
		}
	}
	return runJobs(o, jobs, func(j job) Fig7Panel {
		mix := mixes[j.mixIdx]
		name := algos[j.algoIdx]
		var arms []simsmt.ArmSample
		var ipc float64
		if name == "BestStatic" {
			table := simsmt.Table1Arms()
			res := o.runSMTFixed(mix, "best-static", table[bestArm[j.mixIdx]], true)
			arms, ipc = []simsmt.ArmSample{{Cycle: 0, Arm: bestArm[j.mixIdx]}}, res.SumIPC
		} else {
			arms, ipc = o.runSMTTrace(mix, name)
		}
		panel := Fig7Panel{Algo: name, App: mix.Name(), IPC: ipc}
		panel.Arms = make([]ArmPoint, 0, len(arms))
		for _, s := range arms {
			panel.Arms = append(panel.Arms, ArmPoint{Cycle: s.Cycle, Arm: s.Arm})
		}
		return panel
	})
}

// runSMTTrace runs a mix under a named bandit algorithm with arm tracing.
func (o Options) runSMTTrace(mix smtwork.Mix, algo string) ([]simsmt.ArmSample, float64) {
	arms := len(simsmt.Table1Arms())
	ctrl := banditAlgorithms(o.subSeed("fig7smt", mix.Name(), algo), arms, true)[algo]()
	seed := o.subSeed("fig7smtrun", mix.Name(), algo)
	sim := simsmt.NewSim(mix.A, mix.B, seed)
	r := simsmt.NewRunner(sim, ctrl, simsmt.Table1Arms(), true)
	r.EpochLen = o.EpochLen
	r.RREpochs = o.RREpochs
	r.MainEpochs = o.MainEpochs
	r.RecordArms()
	o.simCycles(r)
	return r.ArmTrace, sim.SumIPC()
}

// ---------------------------------------------------------------------
// §5.4 / §6.5 — storage, area, power

// AreaPowerResult carries the hardware-cost model outputs.
type AreaPowerResult struct {
	Prefetch  hw.AgentCost
	SMT       hw.AgentCost
	AreaFrac  float64
	PowerFrac float64
	Storage   []hw.StorageComparison
}

// AreaPower evaluates the hardware model for both use cases.
func AreaPower() AreaPowerResult {
	area, power := hw.DieOverhead()
	return AreaPowerResult{
		Prefetch:  hw.Agent(11),
		SMT:       hw.Agent(6),
		AreaFrac:  area,
		PowerFrac: power,
		Storage:   hw.StorageTable(11),
	}
}

// Render formats the hardware-cost summary.
func (r AreaPowerResult) Render() string {
	var b strings.Builder
	b.WriteString("Hardware cost model (§5.4, §6.5)\n")
	fmt.Fprintf(&b, "prefetching agent: %s\n", r.Prefetch)
	fmt.Fprintf(&b, "SMT agent:         %s\n", r.SMT)
	fmt.Fprintf(&b, "40-core die overhead: area %.5f%%  power %.5f%%\n",
		r.AreaFrac*100, r.PowerFrac*100)
	t := stats.NewTable("Storage comparison", "design", "bytes")
	for _, s := range r.Storage {
		t.AddRow(s.Name, fmt.Sprintf("%d", s.Bytes))
	}
	b.WriteString(t.Render())
	return b.String()
}
