package microbandit_test

// The root benchmark suite regenerates every table and figure of the
// paper (DESIGN.md's per-experiment index maps each benchmark to its
// experiment). Each benchmark runs the corresponding harness experiment
// at a compact preset and reports the experiment's headline metric via
// b.ReportMetric, so `go test -bench=. -benchmem` both times the
// experiment pipelines and prints the reproduced numbers.
//
// cmd/mab-report regenerates the full rendered tables at larger presets.

import (
	"testing"

	"microbandit/internal/harness"
	"microbandit/internal/obs"
)

// benchOptions is the compact preset used by the benchmark suite: small
// enough that every experiment completes in seconds, large enough that
// the learning dynamics (round-robin phase + main loop) are exercised.
func benchOptions() harness.Options {
	o := harness.Smoke()
	o.Insts = 400_000
	o.StepL2 = 250
	o.MaxApps = 2
	o.SMTCycles = 400_000
	o.EpochLen = 4 * 1024
	o.RREpochs = 4
	o.MaxMixes = 4
	// The suite benches the experiments themselves, so runs stay serial;
	// the *Parallel variants below measure the worker-pool speedup.
	o.Workers = 1
	return o
}

// --- Parallel-engine benches ------------------------------------------
//
// The serial benchmarks above fix Workers=1; these two rerun the
// heaviest experiments with the default worker pool (one worker per
// CPU), so `go test -bench 'Table8|Fig5'` shows the serial-vs-parallel
// wall-clock side by side.

func BenchmarkTable8Parallel(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	o.Workers = 0 // default pool: one worker per CPU
	for i := 0; i < b.N; i++ {
		res := harness.Table8(o)
		b.ReportMetric(res.Algos["DUCB"].GMean, "ducb_gmean_%")
	}
}

func BenchmarkFig5Parallel(b *testing.B) {
	o := benchOptions()
	o.MaxMixes = 2
	o.SMTCycles = 150_000
	o.EpochLen = 2048
	o.Workers = 0 // default pool: one worker per CPU
	for i := 0; i < b.N; i++ {
		res := harness.Fig5(o)
		if len(res.Rows) > 0 {
			b.ReportMetric(res.Rows[0].BestDelta*100, "best_vs_choi_%")
		}
	}
}

func BenchmarkFig2TemporalHomogeneity(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res := harness.Fig2(o)
		b.ReportMetric(res.AvgTop1*100, "top1_%")
		b.ReportMetric(res.AvgTop2*100, "top2_%")
	}
}

func BenchmarkFig5PolicySpace(b *testing.B) {
	o := benchOptions()
	o.MaxMixes = 2
	o.SMTCycles = 150_000
	o.EpochLen = 2048
	for i := 0; i < b.N; i++ {
		res := harness.Fig5(o)
		if len(res.Rows) > 0 {
			b.ReportMetric(res.Rows[0].BestDelta*100, "best_vs_choi_%")
			b.ReportMetric(res.Rows[0].WorstDelta*100, "worst_vs_choi_%")
		}
	}
}

func BenchmarkTable8PrefetchTuneSet(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	for i := 0; i < b.N; i++ {
		res := harness.Table8(o)
		b.ReportMetric(res.Algos["DUCB"].GMean, "ducb_gmean_%")
		b.ReportMetric(res.Algos["Pythia"].GMean, "pythia_gmean_%")
		b.ReportMetric(res.Algos["Single"].Min, "single_min_%")
	}
}

func BenchmarkTable9SMTTuneSet(b *testing.B) {
	o := benchOptions()
	o.MaxMixes = 2
	for i := 0; i < b.N; i++ {
		res := harness.Table9(o)
		b.ReportMetric(res.Algos["DUCB"].GMean, "ducb_gmean_%")
		b.ReportMetric(res.Algos["Choi"].GMean, "choi_gmean_%")
	}
}

func BenchmarkFig7ExplorationTraces(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		panels := append(harness.Fig7Prefetch(o), harness.Fig7SMT(o)...)
		switches := 0
		for _, p := range panels {
			switches += len(p.Arms)
		}
		b.ReportMetric(float64(len(panels)), "panels")
		b.ReportMetric(float64(switches), "arm_switches")
	}
}

func BenchmarkFig8SingleCore(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res := harness.Fig8(o)
		b.ReportMetric(res.Norm["Bandit"]["all"], "bandit_norm")
		b.ReportMetric(res.Speedup("Bandit", "Stride"), "vs_stride_%")
		b.ReportMetric(res.Speedup("Bandit", "Pythia"), "vs_pythia_%")
	}
}

func BenchmarkFig9Classification(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	for i := 0; i < b.N; i++ {
		res := harness.Fig9(o)
		for _, row := range res.Rows {
			if row.Kind == "Bandit" {
				b.ReportMetric(row.Timely, "bandit_timely")
				b.ReportMetric(row.Wrong, "bandit_wrong")
			}
		}
	}
}

func BenchmarkFig10BandwidthSweep(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	for i := 0; i < b.N; i++ {
		res := harness.Fig10(o)
		// The paper's headline: Bandit vs Pythia at the most constrained
		// configuration (150 MTPS).
		b.ReportMetric((res.Bandit[0]/res.Pythia[0]-1)*100, "150mtps_vs_pythia_%")
	}
}

func BenchmarkFig11AltHierarchy(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	for i := 0; i < b.N; i++ {
		res := harness.Fig11(o)
		b.ReportMetric(res.Norm["Bandit"]["all"], "bandit_norm")
	}
}

func BenchmarkFig12MultiLevel(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	for i := 0; i < b.N; i++ {
		res := harness.Fig12(o)
		for j, k := range res.Kinds {
			if k == "Stride_Bandit" {
				b.ReportMetric(res.Norm[j], "stride_bandit_norm")
			}
		}
	}
}

func BenchmarkFig13SMTMixes(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res := harness.Fig13(o)
		b.ReportMetric((res.GMeanVsChoi-1)*100, "vs_choi_%")
		b.ReportMetric((res.GMeanVsIC-1)*100, "vs_icount_%")
	}
}

func BenchmarkFig14FourCore(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	for i := 0; i < b.N; i++ {
		res := harness.Fig14(o)
		for j, k := range res.Kinds {
			if k == "Bandit" {
				b.ReportMetric(res.Norm[j], "bandit_norm")
			}
		}
	}
}

func BenchmarkFig15RenameBreakdown(b *testing.B) {
	o := benchOptions()
	o.MaxMixes = 2
	for i := 0; i < b.N; i++ {
		res := harness.Fig15(o)
		b.ReportMetric(res.Fractions["Bandit"]["running"]*100, "bandit_running_%")
		b.ReportMetric(res.Fractions["Choi"]["running"]*100, "choi_running_%")
	}
}

func BenchmarkAreaPowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.AreaPower()
		b.ReportMetric(float64(res.Prefetch.StorageBytes), "storage_B")
		b.ReportMetric(res.AreaFrac*100, "die_area_%")
	}
}

// --- Ablation benches (DESIGN.md design choices) ----------------------

func BenchmarkAblationNormalization(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	for i := 0; i < b.N; i++ {
		res := harness.AblationNormalization(o)
		b.ReportMetric(res.Rows[0].Value*100, "with_norm_%best")
		b.ReportMetric(res.Rows[1].Value*100, "raw_%best")
	}
}

func BenchmarkAblationRRRestart(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	o.Insts = 250_000
	for i := 0; i < b.N; i++ {
		res := harness.AblationRRRestart(o)
		b.ReportMetric(res.Rows[0].Value, "p0_sumipc")
		b.ReportMetric(res.Rows[1].Value, "p001_sumipc")
	}
}

func BenchmarkAblationStepRR(b *testing.B) {
	o := benchOptions()
	o.MaxMixes = 2
	for i := 0; i < b.N; i++ {
		res := harness.AblationStepRR(o)
		b.ReportMetric(res.Rows[0].Value, "rr1_sumipc")
		b.ReportMetric(res.Rows[len(res.Rows)-1].Value, "rrlong_sumipc")
	}
}

func BenchmarkAblationGamma(b *testing.B) {
	o := benchOptions()
	o.Insts = 600_000 // long enough to cross an mcf phase at smoke scale
	for i := 0; i < b.N; i++ {
		res := harness.AblationGamma(o)
		b.ReportMetric(res.Rows[2].Value, "g0.999_ipc")
		b.ReportMetric(res.Rows[4].Value, "ucb_ipc")
	}
}

func BenchmarkAblationArms(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	for i := 0; i < b.N; i++ {
		res := harness.AblationArms(o)
		b.ReportMetric(res.Rows[0].Value, "arms11_ipc")
		b.ReportMetric(res.Rows[2].Value, "arms2_ipc")
	}
}

func BenchmarkExtensionsBOPAndMeta(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	for i := 0; i < b.N; i++ {
		res := harness.Extras(o)
		b.ReportMetric(res.BOPNorm, "bop_norm")
		b.ReportMetric(res.BanditNorm, "bandit_norm")
		b.ReportMetric(res.MetaNorm, "meta_norm")
	}
}

func BenchmarkRewardMetrics(b *testing.B) {
	o := benchOptions()
	o.MaxMixes = 2
	for i := 0; i < b.N; i++ {
		res := harness.RewardMetrics(o)
		b.ReportMetric(res.Fairness[0], "sumipc_fairness")
		b.ReportMetric(res.Fairness[2], "harmonic_fairness")
	}
}

func BenchmarkTuningSweep(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	o.Insts = 200_000
	for i := 0; i < b.N; i++ {
		res := harness.Tuning(o)
		b.ReportMetric(res.Best.GMeanIPC, "best_gmean_ipc")
	}
}

// BenchmarkAgentStep isolates the reusable agent itself: the per-step
// cost of the DUCB arm selection and update (the operation the hardware
// agent performs once per bandit step).
func BenchmarkAgentStep(b *testing.B) {
	agent := newBenchAgent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arm := agent.Step()
		agent.Reward(1.0 + float64(arm)*0.01)
	}
}

// BenchmarkAgentStepTelemetryOff is the zero-cost-when-disabled contract
// for the obs layer: the telemetry hooks are compiled into the agent but
// no recorder is attached, so the per-step cost and allocation count must
// match BenchmarkAgentStep (`go test -bench AgentStep` shows the pair
// side by side).
func BenchmarkAgentStepTelemetryOff(b *testing.B) {
	agent := newBenchAgent()
	agent.SetRecorder(nil, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arm := agent.Step()
		agent.Reward(1.0 + float64(arm)*0.01)
	}
}

// BenchmarkAgentStepTelemetryNop attaches the drop-everything recorder,
// bounding the cost of the emission path itself (event construction plus
// the interface call) independent of any real sink.
func BenchmarkAgentStepTelemetryNop(b *testing.B) {
	agent := newBenchAgent()
	agent.SetRecorder(obs.Nop{}, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arm := agent.Step()
		agent.Reward(1.0 + float64(arm)*0.01)
	}
}

func BenchmarkAblationTargetLevel(b *testing.B) {
	o := benchOptions()
	o.MaxApps = 1
	for i := 0; i < b.N; i++ {
		res := harness.AblationTargetLevel(o)
		b.ReportMetric(res.Rows[0].Value, "l2fill_ipc")
		b.ReportMetric(res.Rows[1].Value, "extended_ipc")
	}
}
