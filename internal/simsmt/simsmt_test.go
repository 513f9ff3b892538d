package simsmt

import (
	"testing"

	"microbandit/internal/smtwork"
)

func mustProfile(t *testing.T, name string) smtwork.Profile {
	t.Helper()
	p, err := smtwork.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPolicyString(t *testing.T) {
	cases := map[string]Policy{
		"IC_0000":   ICountPolicy,
		"IC_1011":   ChoiPolicy,
		"LSQC_1111": {Priority: PriorityLSQC, Gate: [4]bool{true, true, true, true}},
		"RR_0100":   {Priority: PriorityRR, Gate: [4]bool{false, true, false, false}},
	}
	for want, p := range cases {
		if p.String() != want {
			t.Errorf("String = %q, want %q", p.String(), want)
		}
		parsed, err := ParsePolicy(want)
		if err != nil || parsed != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", want, parsed, err)
		}
	}
}

func TestParsePolicyRejects(t *testing.T) {
	for _, s := range []string{"", "IC", "XX_0000", "IC_00", "IC_000x", "IC_00000"} {
		if _, err := ParsePolicy(s); err == nil {
			t.Errorf("ParsePolicy accepted %q", s)
		}
	}
}

func TestAllPolicies(t *testing.T) {
	all := AllPolicies()
	if len(all) != 64 {
		t.Fatalf("got %d policies, want 64", len(all))
	}
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.String()] {
			t.Errorf("duplicate policy %s", p)
		}
		seen[p.String()] = true
	}
	if !seen["IC_1011"] || !seen["RR_1111"] || !seen["BrC_0101"] {
		t.Error("expected policies missing from the design space")
	}
}

func TestTable1Arms(t *testing.T) {
	arms := Table1Arms()
	want := []string{"IC_0000", "BrC_1000", "IC_1110", "IC_1111", "LSQC_1111", "RR_1111"}
	if len(arms) != len(want) {
		t.Fatalf("got %d arms", len(arms))
	}
	for i, w := range want {
		if arms[i].String() != w {
			t.Errorf("arm %d = %s, want %s", i, arms[i], w)
		}
	}
}

func TestPipelineCommitsBothThreads(t *testing.T) {
	sim := NewSim(mustProfile(t, "gcc"), mustProfile(t, "leela"), 1)
	sim.RunCycles(50_000)
	for ti := 0; ti < 2; ti++ {
		if sim.Committed(ti) == 0 {
			t.Fatalf("thread %d committed nothing: %s", ti, sim.Occupancies())
		}
	}
	if ipc := sim.SumIPC(); ipc <= 0.2 || ipc > float64(DefaultConfig().CommitWidth) {
		t.Errorf("sum IPC = %.3f out of plausible range", ipc)
	}
}

func TestPipelineDeterminism(t *testing.T) {
	run := func() (int64, int64, int64) {
		sim := NewSim(mustProfile(t, "mcf"), mustProfile(t, "lbm"), 9)
		sim.RunCycles(40_000)
		return sim.Committed(0), sim.Committed(1), sim.Cycle()
	}
	a0, a1, ac := run()
	b0, b1, bc := run()
	if a0 != b0 || a1 != b1 || ac != bc {
		t.Errorf("non-deterministic: %d/%d/%d vs %d/%d/%d", a0, a1, ac, b0, b1, bc)
	}
}

func TestRenameAccountingAddsUp(t *testing.T) {
	sim := NewSim(mustProfile(t, "mcf"), mustProfile(t, "lbm"), 3)
	const cycles = 30_000
	sim.RunCycles(cycles)
	rs := sim.RenameStats()
	if rs.Total() != cycles {
		t.Errorf("rename accounting covers %d of %d cycles: %+v", rs.Total(), cycles, rs)
	}
	if rs.Running == 0 {
		t.Error("rename never ran")
	}
}

func TestCacheResidentThreadsSaturate(t *testing.T) {
	sim := NewSim(mustProfile(t, "exchange2"), mustProfile(t, "leela"), 2)
	sim.RunCycles(60_000)
	// Two cache-resident integer threads should keep the pipeline busy.
	if ipc := sim.SumIPC(); ipc < 1.5 {
		t.Errorf("cache-resident mix sum IPC = %.3f, want > 1.5", ipc)
	}
}

func TestMemBoundMixIsSlower(t *testing.T) {
	fast := NewSim(mustProfile(t, "exchange2"), mustProfile(t, "leela"), 2)
	fast.RunCycles(60_000)
	slow := NewSim(mustProfile(t, "mcf"), mustProfile(t, "fotonik3d"), 2)
	slow.RunCycles(60_000)
	if slow.SumIPC() >= fast.SumIPC()*0.8 {
		t.Errorf("memory-bound mix IPC %.3f not clearly below cache-resident %.3f",
			slow.SumIPC(), fast.SumIPC())
	}
}

// The §3.3 motivating scenario: paired with lbm (which hogs the SQ with
// slow-draining stores), an LSQ-aware policy must eliminate the SQ-full
// rename stalls the LSQ-unaware Choi policy suffers, without losing
// throughput. (Whether the net effect is a large win depends on the mix;
// the harness's Fig. 5 sweep reports the distribution.)
func TestLSQAwarenessHelpsAgainstLbm(t *testing.T) {
	run := func(policy Policy) (float64, RenameStats) {
		sim := NewSim(mustProfile(t, "gcc"), mustProfile(t, "lbm"), 5)
		r := NewFixedRunner(sim, policy, true)
		r.RunCycles(2_000_000)
		return sim.SumIPC(), sim.RenameStats()
	}
	choi, choiRS := run(ChoiPolicy)
	lsqAware, lsqRS := run(mustPolicy("LSQC_1111"))
	if choiRS.StallSQ == 0 {
		t.Fatal("Choi shows no SQ-full stalls; lbm's SQ pressure is missing")
	}
	if lsqRS.StallSQ*4 > choiRS.StallSQ {
		t.Errorf("LSQ-aware gating left %d SQ stalls vs Choi's %d — gate not binding",
			lsqRS.StallSQ, choiRS.StallSQ)
	}
	if lsqAware < choi*0.97 {
		t.Errorf("LSQC_1111 (%.4f) clearly worse than Choi (%.4f)", lsqAware, choi)
	}
}

func TestGatingLimitsOccupancy(t *testing.T) {
	// With aggressive gating and a small share for thread 0, its ROB
	// occupancy should stay near its cap.
	sim := NewSim(mustProfile(t, "mcf"), mustProfile(t, "gcc"), 7)
	sim.SetPolicy(mustPolicy("IC_0010")) // gate on ROB only
	sim.SetShare(0.2)
	sim.RunCycles(50_000)
	t0 := sim.threads[0]
	cap := 0.2*float64(sim.cfg.ROBSize) + float64(sim.cfg.FetchQCap) + 8
	if float64(t0.robCount) > cap {
		t.Errorf("thread 0 ROB occupancy %d exceeds gated cap %.0f", t0.robCount, cap)
	}
}

func TestHillClimbSearch(t *testing.T) {
	hc := NewHillClimb()
	if hc.Share() != 0.5 {
		t.Fatalf("initial share = %v", hc.Share())
	}
	// Feed a performance landscape that prefers larger thread-0 share.
	for i := 0; i < 60; i++ {
		hc.EpochEnd(hc.Share()) // perf equals the share itself
	}
	if hc.Base() <= 0.55 {
		t.Errorf("hill climbing did not move uphill: base = %v", hc.Base())
	}
	if hc.Epochs() != 60 {
		t.Errorf("epochs = %d", hc.Epochs())
	}
	// And downhill when the landscape flips.
	for i := 0; i < 120; i++ {
		hc.EpochEnd(1 - hc.Share())
	}
	if hc.Base() >= 0.45 {
		t.Errorf("hill climbing did not adapt downhill: base = %v", hc.Base())
	}
}

func TestHillClimbSaveRestore(t *testing.T) {
	hc := NewHillClimb()
	for i := 0; i < 10; i++ {
		hc.EpochEnd(hc.Share())
	}
	snap := hc.Save()
	base := hc.Base()
	hc.Reset()
	if hc.Base() != 0.5 {
		t.Error("Reset did not restore even split")
	}
	hc.Restore(snap)
	if hc.Base() != base {
		t.Errorf("Restore lost state: %v vs %v", hc.Base(), base)
	}
}

func TestClampShare(t *testing.T) {
	if clampShare(0.05) != 0.1 || clampShare(0.95) != 0.9 || clampShare(0.4) != 0.4 {
		t.Error("clampShare wrong")
	}
}

func TestBanditRunnerSelectsArms(t *testing.T) {
	sim := NewSim(mustProfile(t, "gcc"), mustProfile(t, "lbm"), 11)
	agent := NewBanditAgent(1)
	r := NewRunner(sim, agent, Table1Arms(), true)
	r.EpochLen = 2048 // small epochs to exercise many bandit steps quickly
	r.RREpochs = 4
	r.MainEpochs = 2
	r.RecordArms()
	r.RunCycles(400_000)

	if agent.StepsTaken() < 10 {
		t.Fatalf("only %d bandit steps", agent.StepsTaken())
	}
	// The RR phase tries all six arms.
	seen := map[int]bool{}
	for _, s := range r.ArmTrace {
		seen[s.Arm] = true
	}
	if len(seen) != len(Table1Arms()) {
		t.Errorf("explored %d arms, want %d", len(seen), len(Table1Arms()))
	}
}

func TestBanditRunnerSavesHCPerArm(t *testing.T) {
	sim := NewSim(mustProfile(t, "mcf"), mustProfile(t, "lbm"), 13)
	agent := NewBanditAgent(2)
	r := NewRunner(sim, agent, Table1Arms(), true)
	r.EpochLen = 2048
	r.RREpochs = 2
	r.MainEpochs = 1
	r.RunCycles(300_000)
	if len(r.saved) < 3 {
		t.Errorf("per-arm HC snapshots = %d, want several", len(r.saved))
	}
}

func TestNewPanicsOnBadWidths(t *testing.T) {
	bad := map[string]func(*Config){
		"zero":          func(c *Config) { *c = Config{} },
		"dep-window":    func(c *Config) { c.DepWindow = 200 },
		"iq-over-lane":  func(c *Config) { c.IQSize = laneMax + 1 },
		"sq-over-lane":  func(c *Config) { c.SQSize = laneMax + 1 },
		"rob-over-lane": func(c *Config) { c.ROBSize = laneMax + 1 },
		"frf-over-lane": func(c *Config) { c.FRFSize = 1 << 12 },
		"negative-lq":   func(c *Config) { c.LQSize = -1 },
	}
	for name, mutate := range bad {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			cfg := DefaultConfig()
			mutate(&cfg)
			New(cfg, nil, nil)
		})
	}
}

// BenchmarkPipelineCycle times one simulated cycle on a busy mix
// (gcc-lbm) and on a DRAM-bound one (mcf-lbm), where most cycles are
// dead and skipped.
func BenchmarkPipelineCycle(b *testing.B) {
	for _, pair := range [][2]string{{"gcc", "lbm"}, {"mcf", "lbm"}} {
		b.Run(pair[0]+"-"+pair[1], func(b *testing.B) {
			p1, _ := smtwork.ByName(pair[0])
			p2, _ := smtwork.ByName(pair[1])
			sim := NewSim(p1, p2, 1)
			b.ReportAllocs()
			b.ResetTimer()
			sim.RunCycles(int64(b.N))
		})
	}
}

// FuzzParsePolicy: ParsePolicy must never panic and must round-trip with
// String for every accepted input.
func FuzzParsePolicy(f *testing.F) {
	for _, p := range AllPolicies() {
		f.Add(p.String())
	}
	f.Add("")
	f.Add("IC_")
	f.Add("LSQC_11111")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			return
		}
		if p.String() != s {
			t.Fatalf("round trip: %q -> %v -> %q", s, p, p.String())
		}
	})
}
