package cpu

import (
	"math"
	"testing"

	"microbandit/internal/core"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
)

// epochStack is one fully wired simulation whose results the
// differential tests compare across execution paths.
type epochStack struct {
	r *Runner
	c *Core
}

// newEpochStack builds a bandit-controlled prefetching run over the
// given generator, optionally with a contextual controller (which
// exercises the phase-probe path).
func newEpochStack(gen trace.Generator, seed uint64, contextual bool) epochStack {
	hier := mem.NewHierarchy(mem.DefaultConfig())
	c := New(DefaultConfig(), hier, gen)
	ens := prefetch.NewTable7Ensemble()
	var ctrl core.Controller
	if contextual {
		var err error
		ctrl, err = core.NewContextualAgent(core.ContextualConfig{
			Arms: ens.NumArms(), Algo: "ducb", Seed: seed})
		if err != nil {
			panic(err)
		}
	} else {
		ctrl = core.MustNew(core.Config{
			Arms:      ens.NumArms(),
			Policy:    core.NewDUCB(core.PrefetchC, core.PrefetchGamma),
			Normalize: true,
			Seed:      seed,
		})
	}
	r := NewRunner(c, ens, ctrl, ens)
	r.StepL2 = 200
	r.RecordArms()
	return epochStack{r: r, c: c}
}

// checkEpochEquivalence runs a golden case with its instruction budget
// split unevenly across Run calls, so chunk-boundary state (partial
// slabs) is exercised, and pins every observable — IPC bits, cycles,
// hierarchy counters, prefetch classification, and the arm-selection
// trace — against the fingerprint recorded for the case.
func checkEpochEquivalence(t *testing.T, name string) {
	t.Helper()
	if *update {
		t.Skip("fingerprints are being re-recorded")
	}
	tc, ok := goldenCases(t)[name]
	if !ok {
		t.Fatalf("%s: not a golden case", name)
	}
	s := newEpochStack(tc.mk(), 7, tc.contextual)
	s.r.Run(goldenInsts/3 + 1)
	s.r.Run(goldenInsts - goldenInsts/3 - 1)
	checkGolden(t, name, fingerprintOf(s))
	if s.c.FFInsts() == 0 {
		t.Fatalf("%s: zero fast-forwarded instructions", name)
	}
}

// TestEpochEquivalence pins split runs of representative catalog
// patterns against the golden fingerprints, including the
// phase-structured mcf17 with a contextual controller (phase probes) and
// a storm-wrapped trace (fault hooks).
func TestEpochEquivalence(t *testing.T) {
	cases := []struct{ name, golden string }{
		{"stream", "lbm17"},
		{"chase", "omnetpp17"},
		{"server", "cassandra"},
		{"phase-ctx", "mcf17+ctx"},
		{"storm-ctx", "mcf17+phasestorm:0.9+ctx"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			checkEpochEquivalence(t, tc.golden)
		})
	}
}

// TestEpochPartialRuns pins slab-state persistence: many tiny RunInsts
// calls (the multi-core interleaving pattern) must land on the same
// state as one large call.
func TestEpochPartialRuns(t *testing.T) {
	app, err := trace.ByName("ligra-bfs")
	if err != nil {
		t.Fatal(err)
	}
	one := newEpochStack(app.New(5), 5, false)
	many := newEpochStack(app.New(5), 5, false)
	one.r.Run(200_000)
	var done int64
	for i := int64(1); done < 200_000; i++ {
		n := i % 97
		if done+n > 200_000 {
			n = 200_000 - done
		}
		many.r.Run(n)
		done += n
	}
	if a, b := one.c.IPC(), many.c.IPC(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("IPC %v != %v across split runs", a, b)
	}
	if a, b := one.c.Hier().Stats(), many.c.Hier().Stats(); a != b {
		t.Fatalf("stats %+v != %+v across split runs", a, b)
	}
}

// TestEpochRunZeroAlloc pins the epoch loop's steady state: after
// warmup, simulating through the chunked path allocates nothing.
func TestEpochRunZeroAlloc(t *testing.T) {
	app, err := trace.ByName("lbm17")
	if err != nil {
		t.Fatal(err)
	}
	s := newEpochStack(app.New(1), 1, false)
	s.r.Run(300_000) // warm: slab, Mem, prefetcher tables at high-water mark
	allocs := testing.AllocsPerRun(5, func() { s.r.Run(20_000) })
	if allocs != 0 {
		t.Fatalf("epoch loop allocates %.1f per run, want 0", allocs)
	}
}
