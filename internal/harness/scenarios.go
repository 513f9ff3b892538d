package harness

import (
	"fmt"
	"math"
	"strings"

	"microbandit/internal/cpu"
	"microbandit/internal/fault"
	"microbandit/internal/mem"
	"microbandit/internal/obs"
	"microbandit/internal/scenario"
	"microbandit/internal/stats"
	"microbandit/internal/trace"
)

// This file is the scenarios experiment: the paper's reusability claim
// — one tiny agent, many microarchitecture decision problems — measured
// directly. Every registered scenario runs its curated workloads under
// (a) the bandit, (b) each static arm, and (c) the bandit again with a
// reward-noise fault layered on top (the robustness column), all
// through the deterministic fan-out engine. The bandit's job, per
// scenario, is to match or beat the per-app best static arm it cannot
// know in advance.

// scnRobustFault is the extra fault of the robustness column: the
// bandit re-run with half-amplitude reward noise, reported like every
// other column so degradation is visible next to the clean bandit.
const scnRobustFault = "noise:0.5"

// scnRobustColumn names the robustness column.
const scnRobustColumn = "bandit+" + scnRobustFault

// ScenarioBlock is one scenario's slice of the result.
type ScenarioBlock struct {
	Name    string
	Desc    string
	Faults  string   // scenario-inherent fault set ("" = none)
	Apps    []string // workload names, row order
	Columns []string // column names, column order; 0 = bandit, last = robustness
	// IPC[ai][ci] is the run's end-to-end IPC; NaN when the run failed.
	IPC [][]float64
	// Gmean[ci] is the column's gmean IPC over the apps that produced
	// a usable measurement.
	Gmean []float64
	// BanditVsBest is gmean(bandit) / gmean(best static column); >1
	// means the learner beat every static arm. NaN when undefined.
	BanditVsBest float64
	// BestStatic names the static column with the highest gmean.
	BestStatic string
}

// ScenariosResult is the scenarios experiment outcome.
type ScenariosResult struct {
	Blocks []ScenarioBlock
}

// ScenariosWith runs the named scenarios (the CLI's -scenario filter).
// Unknown names return the registry's error listing the valid ones.
func ScenariosWith(o Options, names []string) (ScenariosResult, error) {
	scns := make([]scenario.Scenario, len(names))
	for i, n := range names {
		sc, err := scenario.NewByName(n)
		if err != nil {
			return ScenariosResult{}, err
		}
		scns[i] = sc
	}

	// Per-scenario dimensions, flattened into one deterministic job list.
	type dims struct {
		sc   scenario.Scenario
		apps []trace.App
		cols []scenario.Column
		off  int // first obs slot / result index of this block
	}
	blocks := make([]dims, len(scns))
	total := 0
	for i, sc := range scns {
		d := dims{sc: sc, apps: o.scenarioApps(sc), cols: sc.Columns(), off: total}
		blocks[i] = d
		total += len(d.apps) * (len(d.cols) + 1) // +1: robustness column
	}

	type job struct{ si, ai, ci int } // ci == len(cols) is the robustness column
	jobs := make([]job, 0, total)
	for si, d := range blocks {
		for ai := range d.apps {
			for ci := 0; ci <= len(d.cols); ci++ {
				jobs = append(jobs, job{si, ai, ci})
			}
		}
	}

	ipcs := runJobs(o, jobs, func(j job) float64 {
		d := blocks[j.si]
		col, colName, extra := scenario.Column{}, "", ""
		if j.ci < len(d.cols) {
			col, colName = d.cols[j.ci], d.cols[j.ci].Name
		} else {
			col, colName, extra = d.cols[0], scnRobustColumn, scnRobustFault
		}
		var rec obs.Recorder
		if o.Obs != nil {
			idx := d.off + j.ai*(len(d.cols)+1) + j.ci
			label := fmt.Sprintf("scenario/%s/%s/%s", d.sc.Name(), d.apps[j.ai].Name, colName)
			rec = o.Obs.Slot(idx, label)
		}
		return o.runScenarioCell(d.sc, d.apps[j.ai], col, colName, extra, rec)
	})

	res := ScenariosResult{Blocks: make([]ScenarioBlock, len(blocks))}
	for si, d := range blocks {
		nC := len(d.cols) + 1
		b := ScenarioBlock{
			Name:   d.sc.Name(),
			Desc:   d.sc.Desc(),
			Faults: d.sc.Faults(),
			IPC:    make([][]float64, len(d.apps)),
			Gmean:  make([]float64, nC),
		}
		for _, a := range d.apps {
			b.Apps = append(b.Apps, a.Name)
		}
		for _, c := range d.cols {
			b.Columns = append(b.Columns, c.Name)
		}
		b.Columns = append(b.Columns, scnRobustColumn)
		for ai := range d.apps {
			b.IPC[ai] = make([]float64, nC)
			for ci := 0; ci < nC; ci++ {
				v := ipcs[d.off+ai*nC+ci]
				if !(v > 0) || math.IsInf(v, 0) {
					v = math.NaN() // failed or degenerate run
				}
				b.IPC[ai][ci] = v
			}
		}
		for ci := 0; ci < nC; ci++ {
			vals := make([]float64, 0, len(d.apps))
			for ai := range d.apps {
				if v := b.IPC[ai][ci]; v > 0 {
					vals = append(vals, v)
				}
			}
			b.Gmean[ci] = stats.GeoMean(vals)
			if len(vals) == 0 {
				b.Gmean[ci] = math.NaN()
			}
		}
		// Best static column: highest gmean among columns 1..len(cols)-1
		// (exclude the bandit and the robustness column).
		best, bestIdx := math.Inf(-1), -1
		for ci := 1; ci < len(d.cols); ci++ {
			if g := b.Gmean[ci]; g > best {
				best, bestIdx = g, ci
			}
		}
		b.BanditVsBest = math.NaN()
		if bestIdx >= 0 && best > 0 && b.Gmean[0] > 0 {
			b.BestStatic = b.Columns[bestIdx]
			b.BanditVsBest = b.Gmean[0] / best
		}
		res.Blocks[si] = b
	}
	return res, nil
}

// scenarioApps resolves a scenario's curated workload names against the
// catalog, capped by MaxApps. A bad name is a programming error in the
// scenario definition, not user input: panic.
func (o Options) scenarioApps(sc scenario.Scenario) []trace.App {
	names := sc.Apps()
	if o.MaxApps > 0 && len(names) > o.MaxApps {
		names = names[:o.MaxApps]
	}
	apps := make([]trace.App, len(names))
	for i, n := range names {
		a, err := trace.ByName(n)
		if err != nil {
			panic(fmt.Sprintf("harness: scenario %s: %v", sc.Name(), err))
		}
		apps[i] = a
	}
	return apps
}

// runScenarioCell simulates one (scenario, app, column) cell: the
// scenario wires its decision unit into a fresh core, the column builds
// the controller, and the scenario's inherent faults plus the cell's
// extra fault (the robustness column) are injected. It returns the
// end-to-end IPC.
func (o Options) runScenarioCell(sc scenario.Scenario, app trace.App, col scenario.Column, colName, extraFault string, rec obs.Recorder) float64 {
	spec := sc.Faults()
	if extraFault != "" {
		if spec != "" {
			spec += ","
		}
		spec += extraFault
	}
	fs, err := fault.ParseSet(spec)
	if err != nil {
		panic(fmt.Sprintf("harness: scenario %s fault set %q: %v", sc.Name(), spec, err))
	}

	seed := o.subSeed("scn", sc.Name(), app.Name, colName)
	if rec != nil {
		rec.Record(obs.Event{Kind: obs.KindScenario, Label: sc.Name()})
	}
	r := o.SimPrefetch(PrefetchSpec{Gen: app.New(seed), Seed: seed, Mem: mem.DefaultConfig(),
		Ctrl: col.New(seed), Faults: fs, Rec: rec,
		Wire: func(c *cpu.Core, h *mem.Hierarchy) scenario.Instance { return sc.Wire(c, h, seed) }})
	return r.Core.IPC()
}

// Render formats one table per scenario plus its summary line.
func (r ScenariosResult) Render() string {
	var sb strings.Builder
	for bi, b := range r.Blocks {
		if bi > 0 {
			sb.WriteString("\n")
		}
		title := fmt.Sprintf("Scenario %s: %s", b.Name, b.Desc)
		if b.Faults != "" {
			title += fmt.Sprintf(" [faults: %s]", b.Faults)
		}
		t := stats.NewTable(title, append([]string{"app"}, b.Columns...)...)
		for ai, app := range b.Apps {
			cells := []string{app}
			for _, v := range b.IPC[ai] {
				cells = append(cells, renderIPC(v))
			}
			t.AddRow(cells...)
		}
		cells := []string{"gmean"}
		for _, g := range b.Gmean {
			cells = append(cells, renderIPC(g))
		}
		t.AddRow(cells...)
		sb.WriteString(t.Render())
		if b.BestStatic != "" && !math.IsNaN(b.BanditVsBest) {
			sb.WriteString(fmt.Sprintf("bandit vs best static: %.3fx (best static: %s)\n",
				b.BanditVsBest, b.BestStatic))
		}
	}
	return sb.String()
}

// renderIPC formats one IPC cell, flagging failed runs.
func renderIPC(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// CSV returns the scenario rows: one line per (scenario, app, column)
// cell, gmean rows with app "gmean", and one summary row per scenario
// (column "bandit_vs_best_static", value the ratio).
func (r ScenariosResult) CSV() string {
	t := stats.NewTable("", "scenario", "app", "column", "ipc")
	cell := func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return fmt.Sprintf("%.4f", v)
	}
	for _, b := range r.Blocks {
		for ai, app := range b.Apps {
			for ci, col := range b.Columns {
				t.AddRow(b.Name, app, col, cell(b.IPC[ai][ci]))
			}
		}
		for ci, col := range b.Columns {
			t.AddRow(b.Name, "gmean", col, cell(b.Gmean[ci]))
		}
		if b.BestStatic != "" {
			t.AddRow(b.Name, "gmean", "bandit_vs_best_static", cell(b.BanditVsBest))
		}
	}
	return t.CSV()
}
