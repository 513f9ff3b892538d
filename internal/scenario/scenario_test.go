package scenario

import (
	"strings"
	"testing"

	"microbandit/internal/cpu"
	"microbandit/internal/fault"
	"microbandit/internal/mem"
	"microbandit/internal/trace"
)

// wire builds a minimal simulated core and wires sc into it.
func wire(t *testing.T, sc Scenario) (Instance, *cpu.Core) {
	t.Helper()
	hier := mem.NewHierarchy(mem.DefaultConfig())
	app, err := trace.ByName(sc.Apps()[0])
	if err != nil {
		t.Fatalf("scenario %s: %v", sc.Name(), err)
	}
	c := cpu.New(cpu.DefaultConfig(), hier, app.New(1))
	return sc.Wire(c, hier, 1), c
}

func TestRegistry(t *testing.T) {
	names := Names()
	all := All()
	if len(names) != len(all) || len(names) < 5 {
		t.Fatalf("registry: %d names, %d scenarios, want >= 5 of each", len(names), len(all))
	}
	seen := map[string]bool{}
	for i, sc := range all {
		if sc.Name() != names[i] {
			t.Errorf("Names()[%d] = %q, All()[%d].Name() = %q", i, names[i], i, sc.Name())
		}
		if seen[sc.Name()] {
			t.Errorf("duplicate scenario name %q", sc.Name())
		}
		seen[sc.Name()] = true
		got, err := NewByName(sc.Name())
		if err != nil || got.Name() != sc.Name() {
			t.Errorf("NewByName(%q) = %v, %v", sc.Name(), got, err)
		}
	}
	for _, want := range []string{"prefetch", "dramsched", "cacheins", "pfdegree", "agentselect"} {
		if !seen[want] {
			t.Errorf("registry missing scenario %q", want)
		}
	}
}

// TestNewByNameUnknown pins the CLI contract: an unknown name errors
// and the message lists every valid name (the CLIs print it verbatim
// and exit 2).
func TestNewByNameUnknown(t *testing.T) {
	_, err := NewByName("nope")
	if err == nil {
		t.Fatal("NewByName accepted an unknown scenario")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"nope"`) {
		t.Errorf("error %q does not name the bad input", msg)
	}
	for _, n := range Names() {
		if !strings.Contains(msg, n) {
			t.Errorf("error %q does not list valid scenario %q", msg, n)
		}
	}
}

// TestScenarioContracts checks every registered scenario honors the
// interface contract the harness builds on: arm labels match the wired
// tunable, column 0 is the learning bandit, every column constructs,
// every app resolves, every arm applies, and the fault set parses.
func TestScenarioContracts(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			labels := sc.ArmLabels()
			if len(labels) < 2 {
				t.Fatalf("ArmLabels: %d arms, want >= 2", len(labels))
			}
			if sc.Desc() == "" {
				t.Error("empty Desc")
			}
			if _, err := fault.ParseSet(sc.Faults()); err != nil {
				t.Errorf("Faults %q does not parse: %v", sc.Faults(), err)
			}
			for _, name := range sc.Apps() {
				if _, err := trace.ByName(name); err != nil {
					t.Errorf("app %q: %v", name, err)
				}
			}
			cols := sc.Columns()
			if len(cols) < 2 {
				t.Fatalf("Columns: %d, want bandit + statics", len(cols))
			}
			if cols[0].Name != "bandit" {
				t.Errorf("Columns[0] = %q, want the bandit", cols[0].Name)
			}
			for _, col := range cols {
				if ctrl := col.New(7); ctrl == nil {
					t.Errorf("column %q built a nil controller", col.Name)
				}
			}

			inst, _ := wire(t, sc)
			if inst.Tunable == nil {
				t.Fatal("Wire returned a nil Tunable")
			}
			// agentselect's decision space is the candidate agents, but its
			// tunable is the substrate those agents drive (the prefetch
			// ensemble) — the one scenario where the two arm spaces differ.
			wantArms := labels
			if sc.Name() == "agentselect" {
				wantArms = prefetchLabels
			}
			if got := inst.Tunable.NumArms(); got != len(wantArms) {
				t.Fatalf("tunable NumArms = %d, want %d", got, len(wantArms))
			}
			for arm := range wantArms {
				inst.Tunable.Apply(arm) // must not panic on any valid arm
			}
			inst.Tunable.Apply(0)
		})
	}
}

// TestTunableApplyZeroAlloc pins the satellite guarantee: the
// arm-switch path of every scenario tunable — the bandit's actuation
// hot path — is allocation-free in steady state.
func TestTunableApplyZeroAlloc(t *testing.T) {
	for _, name := range []string{"dramsched", "cacheins", "pfdegree"} {
		sc, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			inst, _ := wire(t, sc)
			arms := inst.Tunable.NumArms()
			i := 0
			if n := testing.AllocsPerRun(200, func() {
				inst.Tunable.Apply(i % arms)
				i++
			}); n != 0 {
				t.Fatalf("Apply allocates %.1f times per run, want 0", n)
			}
		})
	}
}

// TestIPCProbe pins the diff-against-last-call contract on a live core.
func TestIPCProbe(t *testing.T) {
	sc, err := NewByName("dramsched")
	if err != nil {
		t.Fatal(err)
	}
	inst, c := wire(t, sc)
	if inst.Probe == nil {
		t.Fatal("dramsched wired no probe")
	}
	c.RunInsts(20_000)
	r1 := inst.Probe.StepReward()
	if r1 <= 0 || r1 > 8 {
		t.Fatalf("first StepReward = %v, want a sane IPC", r1)
	}
	if r := inst.Probe.StepReward(); r != 0 {
		t.Fatalf("StepReward with no progress = %v, want 0", r)
	}
	c.RunInsts(20_000)
	if r := inst.Probe.StepReward(); r <= 0 {
		t.Fatalf("StepReward after more work = %v, want > 0", r)
	}
}

// TestHitRateProbe pins the hit-rate probe: rewards stay in [0,1] and a
// quiet step repeats the previous rate instead of punishing the arm.
func TestHitRateProbe(t *testing.T) {
	sc, err := NewByName("cacheins")
	if err != nil {
		t.Fatal(err)
	}
	inst, c := wire(t, sc)
	if inst.Probe == nil {
		t.Fatal("cacheins wired no probe")
	}
	c.RunInsts(50_000)
	r1 := inst.Probe.StepReward()
	if r1 < 0 || r1 > 1 {
		t.Fatalf("StepReward = %v, want within [0,1]", r1)
	}
	if r := inst.Probe.StepReward(); r != r1 {
		t.Fatalf("quiet-step StepReward = %v, want previous rate %v", r, r1)
	}
}
