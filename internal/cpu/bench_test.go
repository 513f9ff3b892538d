package cpu

import (
	"testing"

	"microbandit/internal/core"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
)

// benchRunner builds the configuration the experiments spend most of
// their time in (and the one internal/simbench measures): the
// bandit-controlled Table 7 ensemble over the default hierarchy.
func benchRunner(b testing.TB, appName string) *Runner {
	app, err := trace.ByName(appName)
	if err != nil {
		b.Fatal(err)
	}
	hier := mem.NewHierarchy(mem.DefaultConfig())
	c := New(DefaultConfig(), hier, app.New(1))
	ens := prefetch.NewTable7Ensemble()
	ctrl := core.MustNew(core.Config{
		Arms:      ens.NumArms(),
		Policy:    core.NewDUCB(core.PrefetchC, core.PrefetchGamma),
		Normalize: true,
		Seed:      1,
	})
	return NewRunner(c, ens, ctrl, ens)
}

// BenchmarkRunnerRun measures end-to-end simulated instructions per
// second of the bandit loop (b.N instructions per iteration batch).
func BenchmarkRunnerRun(b *testing.B) {
	for _, app := range []string{"lbm17", "omnetpp17", "cactuBSSN"} {
		b.Run(app, func(b *testing.B) {
			r := benchRunner(b, app)
			r.Run(200_000) // warmup: tables and queues reach steady state
			b.ReportAllocs()
			b.ResetTimer()
			r.Run(int64(b.N))
		})
	}
}

// TestRunnerStepZeroAlloc pins the headline property of the hot path:
// once warm, simulating instructions through the full stack — trace
// generation, core model, hierarchy, prefetcher ensemble, bandit
// controller — performs zero heap allocations (telemetry off, arm
// trace off).
func TestRunnerStepZeroAlloc(t *testing.T) {
	for _, app := range []string{"lbm17", "omnetpp17"} {
		r := benchRunner(t, app)
		r.Run(300_000) // warmup: reach every capacity high-water mark
		if n := testing.AllocsPerRun(5, func() {
			r.Run(20_000)
		}); n != 0 {
			t.Errorf("%s: Runner.Run allocates %.1f times per 20k insts, want 0", app, n)
		}
	}
}
