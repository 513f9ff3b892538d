package harness

import (
	"fmt"
	"math"

	"microbandit/internal/core"
	"microbandit/internal/fault"
	"microbandit/internal/mem"
	"microbandit/internal/obs"
	"microbandit/internal/prefetch"
	"microbandit/internal/stats"
	"microbandit/internal/trace"
)

// This file is the robustness experiment: the paper's resilience story
// (§4.3's DUCB discounting and probabilistic round-robin restarts exist
// precisely to survive nonstationarity, interference, and noisy rewards)
// reproduced by sweeping seeded faults over the bandit algorithms. Each
// sweep point runs every tune-set app under every algorithm with the
// fault injected, and reports gmean IPC as a percentage of the same
// algorithm's clean-run IPC — the graceful-degradation curve.

// RobustAlgos lists the algorithms compared, in column order. DUCB+RR is
// DUCB with the §4.3 probabilistic round-robin restart enabled; CTX-DUCB
// keys independent DUCB tables by the runner's telemetry signature
// (phase id, MPKI band, DRAM-bandwidth band), so a phase storm lands in
// a fresh table instead of poisoning the learned one.
var RobustAlgos = []string{"eps-Greedy", "UCB", "DUCB", "DUCB+RR", "CTX-DUCB"}

// robustRRProb is the per-step round-robin restart probability of the
// DUCB+RR column. The paper uses 0.001 per step over 1B-instruction
// runs; the scaled presets complete far fewer bandit steps, so the
// probability scales up to keep the expected restart count comparable.
const robustRRProb = 0.02

// robustIntensities is the default intensity grid per fault kind.
var robustIntensities = []float64{0.25, 0.5, 1}

// robustKinds is the default fault-kind sweep (Panic is excluded: it is
// an engine-hardening fault, injectable explicitly via -faults).
var robustKinds = []fault.Kind{fault.Noise, fault.Delay, fault.StuckArm, fault.BWCollapse, fault.PhaseStorm}

// DefaultFaultSweep returns the default sweep points: every robustness
// fault kind at every default intensity, seed 1.
func DefaultFaultSweep() []fault.Spec {
	out := make([]fault.Spec, 0, len(robustKinds)*len(robustIntensities))
	for _, k := range robustKinds {
		for _, in := range robustIntensities {
			out = append(out, fault.Spec{Kind: k, Intensity: in, Seed: 1})
		}
	}
	return out
}

// RobustResult is the robustness sweep outcome.
type RobustResult struct {
	Sweep []fault.Spec
	Algos []string
	// CleanIPC[ai] is algorithm ai's gmean clean-run IPC.
	CleanIPC []float64
	// Pct[si][ai] is gmean faulted/clean IPC (percent) for sweep point
	// si under algorithm ai; NaN when no run survived.
	Pct [][]float64
	// Survived[si][ai] counts runs that produced a usable IPC.
	Survived [][]int
	// Apps is the number of applications per cell.
	Apps int
}

// Robust runs the robustness experiment with the default fault sweep.
func Robust(o Options) RobustResult { return RobustWith(o, DefaultFaultSweep()) }

// RobustWith runs the robustness experiment over explicit sweep points
// (the CLI's -faults override). Every (sweep point, algorithm, app)
// triple is one engine job; failed jobs (e.g. injected panics) are
// excluded from the surviving-run statistics, so the result is partial
// rather than absent.
func RobustWith(o Options, sweep []fault.Spec) RobustResult {
	apps := o.apps(trace.TuneSet())
	memCfg := mem.DefaultConfig()

	// Job list: sweepIdx -1 is the clean baseline.
	type job struct{ sweepIdx, algoIdx, appIdx int }
	jobs := make([]job, 0, (len(sweep)+1)*len(RobustAlgos)*len(apps))
	for si := -1; si < len(sweep); si++ {
		for ai := range RobustAlgos {
			for pi := range apps {
				jobs = append(jobs, job{si, ai, pi})
			}
		}
	}
	ipcs := runJobs(o, jobs, func(j job) float64 {
		var fs fault.Set
		if j.sweepIdx >= 0 {
			fs = fault.Set{sweep[j.sweepIdx]}
		}
		var rec obs.Recorder
		if o.Obs != nil {
			idx := (j.sweepIdx+1)*len(RobustAlgos)*len(apps) + j.algoIdx*len(apps) + j.appIdx
			label := fmt.Sprintf("robust/%s/%s/%s", apps[j.appIdx].Name, RobustAlgos[j.algoIdx], fs.String())
			rec = o.Obs.Slot(idx, label)
		}
		return o.runPrefetchFaulted(apps[j.appIdx], RobustAlgos[j.algoIdx], fs, memCfg, rec)
	})

	nA, nP := len(RobustAlgos), len(apps)
	at := func(si, ai, pi int) float64 { return ipcs[(si+1)*nA*nP+ai*nP+pi] }

	res := RobustResult{
		Sweep:    sweep,
		Algos:    RobustAlgos,
		CleanIPC: make([]float64, nA),
		Pct:      make([][]float64, len(sweep)),
		Survived: make([][]int, len(sweep)),
		Apps:     nP,
	}
	for ai := range RobustAlgos {
		clean := make([]float64, 0, nP)
		for pi := range apps {
			if v := at(-1, ai, pi); v > 0 {
				clean = append(clean, v)
			}
		}
		res.CleanIPC[ai] = stats.GeoMean(clean)
	}
	for si := range sweep {
		res.Pct[si] = make([]float64, nA)
		res.Survived[si] = make([]int, nA)
		for ai := range RobustAlgos {
			ratios := make([]float64, 0, nP)
			for pi := range apps {
				cleanIPC := at(-1, ai, pi)
				faultIPC := at(si, ai, pi)
				// The negated comparisons also exclude NaN (which passes
				// `<= 0`): a corrupted measurement is a failed run.
				if !(cleanIPC > 0) || !(faultIPC > 0) || math.IsInf(faultIPC, 0) {
					continue // failed or degenerate run: excluded, reported via Survived
				}
				ratios = append(ratios, faultIPC/cleanIPC)
			}
			res.Survived[si][ai] = len(ratios)
			if len(ratios) == 0 {
				res.Pct[si][ai] = math.NaN()
				continue
			}
			res.Pct[si][ai] = 100 * stats.GeoMean(ratios)
		}
	}
	return res
}

// runPrefetchFaulted simulates one app with the Table 7 ensemble under
// the named algorithm, with the fault set injected around the clean
// substrates. rec, when non-nil, receives the run's telemetry.
func (o Options) runPrefetchFaulted(app trace.App, algo string, fs fault.Set, memCfg mem.Config, rec obs.Recorder) float64 {
	seed := o.subSeed("robust", app.Name, algo, fs.String())
	ens := prefetch.NewTable7Ensemble()
	var ctrl core.Controller
	if algo == "DUCB+RR" {
		ctrl = ducbRR(ens.NumArms(), seed, robustRRProb)
	} else {
		ctrl = mustAlgo(algoNames[algo], ens.NumArms(), seed)
	}
	r := o.SimPrefetch(PrefetchSpec{Gen: app.New(seed), Seed: seed, Mem: memCfg,
		L2: ens, Ctrl: ctrl, Arms: ens, Faults: fs, Rec: rec})
	return r.Core.IPC()
}

// Render formats the robustness table.
func (r RobustResult) Render() string {
	t := stats.NewTable(
		fmt.Sprintf("Robustness: gmean IPC under injected faults, %% of each algorithm's clean run (%d apps)", r.Apps),
		append([]string{"fault"}, r.Algos...)...)
	cells := []string{"clean IPC"}
	for ai := range r.Algos {
		cells = append(cells, fmt.Sprintf("%.3f", r.CleanIPC[ai]))
	}
	t.AddRow(cells...)
	for si, spec := range r.Sweep {
		cells := []string{spec.String()}
		for ai := range r.Algos {
			cells = append(cells, renderPct(r.Pct[si][ai], r.Survived[si][ai], r.Apps))
		}
		t.AddRow(cells...)
	}
	return t.Render()
}

// renderPct formats one cell, flagging partial and empty cells.
func renderPct(pct float64, survived, apps int) string {
	if survived == 0 {
		return "-"
	}
	s := fmt.Sprintf("%.1f", pct)
	if survived < apps {
		s += fmt.Sprintf(" (%d/%d)", survived, apps)
	}
	return s
}

// CSV returns the robustness rows.
func (r RobustResult) CSV() string {
	t := stats.NewTable("", "fault", "intensity", "seed", "algorithm", "pct_of_clean", "survived", "apps")
	for si, spec := range r.Sweep {
		for ai, algo := range r.Algos {
			pct := "-"
			if r.Survived[si][ai] > 0 {
				pct = fmt.Sprintf("%.2f", r.Pct[si][ai])
			}
			t.AddRow(string(spec.Kind), fmt.Sprintf("%g", spec.Intensity),
				fmt.Sprintf("%d", spec.Seed), algo, pct,
				fmt.Sprintf("%d", r.Survived[si][ai]), fmt.Sprintf("%d", r.Apps))
		}
	}
	return t.CSV()
}
