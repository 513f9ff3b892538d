package harness

import (
	"fmt"

	"microbandit/internal/simsmt"
	"microbandit/internal/smtwork"
	"microbandit/internal/stats"
)

// RewardMetricsResult compares the Bandit under the three SMT reward
// metrics of §6.4 (sum IPC, average weighted IPC, harmonic mean of
// weighted IPC): what each optimizes for and what it costs elsewhere.
type RewardMetricsResult struct {
	Modes []string
	// Per mode: gmean over mixes of throughput (sum IPC), weighted
	// speedup, harmonic weighted speedup, and mean fairness.
	SumIPC, Weighted, Harmonic, Fairness []float64
}

// RewardMetrics runs the Bandit with each reward mode over the tune
// mixes.
func RewardMetrics(o Options) RewardMetricsResult {
	mixes := o.mixes(smtwork.TuneMixes())
	modes := []simsmt.RewardMode{
		simsmt.RewardSumIPC, simsmt.RewardWeightedIPC, simsmt.RewardHarmonicWeighted,
	}
	res := RewardMetricsResult{}
	soloCycles := o.SMTCycles / 4
	if soloCycles < 50_000 {
		soloCycles = 50_000
	}
	// Phase 1: solo baselines, one per unique profile (first-seen order),
	// shared read-only across modes.
	var profiles []smtwork.Profile
	seen := map[string]bool{}
	for _, mix := range mixes {
		for _, p := range []smtwork.Profile{mix.A, mix.B} {
			if !seen[p.Name] {
				seen[p.Name] = true
				profiles = append(profiles, p)
			}
		}
	}
	soloIPCs := runJobs(o, profiles, func(p smtwork.Profile) float64 {
		return simsmt.SoloIPC(p, o.subSeed("solo", p.Name), soloCycles)
	})
	solo := make(map[string]float64, len(profiles))
	for pi, p := range profiles {
		solo[p.Name] = soloIPCs[pi]
	}

	// Phase 2: one job per (mode, mix).
	type job struct{ modeIdx, mixIdx int }
	jobs := make([]job, 0, len(modes)*len(mixes))
	for di := range modes {
		for mi := range mixes {
			jobs = append(jobs, job{di, mi})
		}
	}
	metrics := runJobs(o, jobs, func(j job) simsmt.WeightedMetrics {
		mode := modes[j.modeIdx]
		mix := mixes[j.mixIdx]
		seed := o.subSeed("reward", mix.Name(), mode.String())
		r := o.SimSMT(SMTSpec{Mix: mix, Seed: seed, Ctrl: simsmt.NewBanditAgent(seed),
			Reward: mode, Solo: [2]float64{solo[mix.A.Name], solo[mix.B.Name]}})
		return simsmt.Evaluate(r.Sim, r.Solo)
	})

	for di, mode := range modes {
		sum := make([]float64, 0, len(mixes))
		wgt := make([]float64, 0, len(mixes))
		har := make([]float64, 0, len(mixes))
		fair := make([]float64, 0, len(mixes))
		for _, m := range metrics[di*len(mixes) : (di+1)*len(mixes)] {
			if m.SumIPC <= 0 || m.Weighted <= 0 || m.Harmonic <= 0 {
				continue
			}
			sum = append(sum, m.SumIPC)
			wgt = append(wgt, m.Weighted)
			har = append(har, m.Harmonic)
			fair = append(fair, m.Fairness)
		}
		res.Modes = append(res.Modes, mode.String())
		res.SumIPC = append(res.SumIPC, stats.GeoMean(sum))
		res.Weighted = append(res.Weighted, stats.GeoMean(wgt))
		res.Harmonic = append(res.Harmonic, stats.GeoMean(har))
		res.Fairness = append(res.Fairness, stats.Mean(fair))
	}
	return res
}

// Render formats the reward-metric comparison.
func (r RewardMetricsResult) Render() string {
	t := stats.NewTable("Reward metrics (§6.4): Bandit optimizing different SMT objectives",
		"reward", "sum IPC", "weighted", "harmonic", "fairness")
	for i, m := range r.Modes {
		t.AddRow(m,
			fmt.Sprintf("%.3f", r.SumIPC[i]),
			fmt.Sprintf("%.3f", r.Weighted[i]),
			fmt.Sprintf("%.3f", r.Harmonic[i]),
			fmt.Sprintf("%.3f", r.Fairness[i]))
	}
	return t.Render()
}
