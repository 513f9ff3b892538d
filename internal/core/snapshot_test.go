package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"microbandit/internal/xrand"
)

// snapshotPolicies returns one fresh instance of every snapshotable
// policy, keyed by a display name.
func snapshotPolicies() map[string]func() Policy {
	return map[string]func() Policy{
		"eps":      func() Policy { return NewEpsilonGreedy(0.1) },
		"ucb":      func() Policy { return NewUCB(0.04) },
		"ducb":     func() Policy { return NewDUCB(PrefetchC, PrefetchGamma) },
		"single":   func() Policy { return NewSingle() },
		"periodic": func() Policy { return NewPeriodic(5, 3) },
	}
}

// stepReward is the deterministic reward stream used by the snapshot
// tests: a fixed per-arm mean plus a step-dependent wobble.
func stepReward(arm, step int) float64 {
	return 0.5 + 0.1*float64(arm%3) + 0.01*float64(step%7)
}

// drive runs n Step/Reward pairs and returns the chosen arms.
func drive(c Controller, startStep, n int) []int {
	arms := make([]int, n)
	for i := 0; i < n; i++ {
		a := c.Step()
		arms[i] = a
		c.Reward(stepReward(a, startStep+i))
	}
	return arms
}

func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	for name, mk := range snapshotPolicies() {
		t.Run(name, func(t *testing.T) {
			a := MustNew(Config{
				Arms: 5, Policy: mk(), Normalize: true,
				RRRestartProb: 0.05, Seed: 42, RecordTrace: true,
			})
			drive(a, 0, 40)
			// Snapshot mid-step too: the open step must survive.
			a.Step()

			s1, err := a.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			b1, err := json.Marshal(s1)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			restored, err := RestoreAgentJSON(b1)
			if err != nil {
				t.Fatalf("RestoreAgentJSON: %v", err)
			}
			s2, err := restored.Snapshot()
			if err != nil {
				t.Fatalf("re-Snapshot: %v", err)
			}
			b2, err := json.Marshal(s2)
			if err != nil {
				t.Fatalf("re-Marshal: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("snapshot not byte-identical after restore:\n  %s\nvs\n  %s", b1, b2)
			}
		})
	}
}

// TestSnapshotRestoreContinuation is the Snapshot→Restore→Step^n ≡ Step^n
// property: after a restore the agent must follow the exact arm sequence
// and land in the exact learned state the original would have reached.
func TestSnapshotRestoreContinuation(t *testing.T) {
	for name, mk := range snapshotPolicies() {
		for _, prefix := range []int{0, 3, 17, 64} {
			t.Run(fmt.Sprintf("%s/prefix%d", name, prefix), func(t *testing.T) {
				cfg := Config{
					Arms: 4, Policy: mk(), Normalize: true,
					RRRestartProb: 0.02, Seed: 7, RecordTrace: true,
				}
				orig := MustNew(cfg)
				drive(orig, 0, prefix)

				snap, err := orig.Snapshot()
				if err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
				data, err := json.Marshal(snap)
				if err != nil {
					t.Fatalf("Marshal: %v", err)
				}
				restored, err := RestoreAgentJSON(data)
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}

				const n = 120
				wantArms := drive(orig, prefix, n)
				gotArms := drive(restored, prefix, n)
				for i := range wantArms {
					if gotArms[i] != wantArms[i] {
						t.Fatalf("step %d after restore: arm %d, want %d", i, gotArms[i], wantArms[i])
					}
				}
				if got, want := restored.Rewards(), orig.Rewards(); !equalF64(got, want) {
					t.Fatalf("rTable diverged: %v vs %v", got, want)
				}
				if got, want := restored.Counts(), orig.Counts(); !equalF64(got, want) {
					t.Fatalf("nTable diverged: %v vs %v", got, want)
				}
				if restored.Restarts() != orig.Restarts() {
					t.Fatalf("restart count diverged: %d vs %d", restored.Restarts(), orig.Restarts())
				}
				if restored.RAvg() != orig.RAvg() {
					t.Fatalf("rAvg diverged: %v vs %v", restored.RAvg(), orig.RAvg())
				}
			})
		}
	}
}

func TestMetaSnapshotRoundTripAndContinuation(t *testing.T) {
	build := func() *Selector {
		return mustSweepMeta(t)
	}
	orig := build()
	drive(orig, 0, 50)

	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	b1, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	restored, err := RestoreSelectorJSON(b1)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}

	// Byte identity.
	s2, err := restored.Snapshot()
	if err != nil {
		t.Fatalf("re-Snapshot: %v", err)
	}
	b2, err := json.Marshal(s2)
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("meta snapshot not byte-identical:\n  %s\nvs\n  %s", b1, b2)
	}

	// Continuation.
	want := drive(orig, 50, 100)
	got := drive(restored, 50, 100)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("meta step %d after restore: arm %d, want %d", i, got[i], want[i])
		}
	}
	if restored.CurrentLevel() != orig.CurrentLevel() {
		t.Fatalf("current level diverged: %d vs %d", restored.CurrentLevel(), orig.CurrentLevel())
	}
}

// TestSelectorSnapshotValidation: a selector over a non-Agent candidate
// has no snapshot, and a snapshot whose labels do not match its
// candidates does not restore.
func TestSelectorSnapshotValidation(t *testing.T) {
	sel, err := NewSelector(Config{Policy: NewUCB(0.1), Seed: 1},
		[]Controller{MustNew(Config{Arms: 3, Policy: NewUCB(0.1), Seed: 2}), FixedArm(1)},
		[]string{"ucb", "static"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var se *SnapshotError
	if _, err := sel.Snapshot(); !errors.As(err, &se) {
		t.Fatalf("Snapshot over a FixedArm candidate: err = %v, want *SnapshotError", err)
	}

	snap, err := mustSweepMeta(t).Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	snap.Labels = snap.Labels[:1]
	if _, err := RestoreSelector(snap); !errors.As(err, &se) {
		t.Fatalf("Restore with %d labels for %d agents: err = %v, want *SnapshotError", len(snap.Labels), len(snap.Lows), err)
	}
}

func mustSweepMeta(t *testing.T) *Selector {
	t.Helper()
	m, err := NewDUCBSweepMeta(4, [][2]float64{{0.04, 0.999}, {0.01, 0.975}, {0.1, 0.99}}, true, 11)
	if err != nil {
		t.Fatalf("NewDUCBSweepMeta: %v", err)
	}
	return m
}

func TestRestoreTypedErrors(t *testing.T) {
	a := MustNew(Config{Arms: 3, Policy: NewDUCB(0.04, 0.999), Seed: 1})
	drive(a, 0, 10)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	good, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}

	t.Run("version mismatch", func(t *testing.T) {
		s := *snap
		s.V = SnapshotVersion + 1
		if _, err := RestoreAgent(&s); err == nil {
			t.Fatal("want error for future version")
		} else {
			var ve *VersionError
			if !errors.As(err, &ve) {
				t.Fatalf("want *VersionError, got %T: %v", err, err)
			}
		}
	})

	t.Run("malformed json", func(t *testing.T) {
		if _, err := RestoreAgentJSON([]byte("{not json")); err == nil {
			t.Fatal("want error for malformed JSON")
		} else {
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("want *SnapshotError, got %T: %v", err, err)
			}
		}
	})

	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(good); cut += 7 {
			if _, err := RestoreAgentJSON(good[:cut]); err == nil {
				t.Fatalf("want error for truncation at %d bytes", cut)
			}
		}
	})

	t.Run("inconsistent tables", func(t *testing.T) {
		s := *snap
		s.R = s.R[:1]
		var se *SnapshotError
		if _, err := RestoreAgent(&s); !errors.As(err, &se) {
			t.Fatalf("want *SnapshotError, got %v", err)
		}
	})

	t.Run("unknown policy", func(t *testing.T) {
		// "thompson" and "static" are removed kinds: a snapshot naming
		// one is refused.
		for _, kind := range []string{"gradient-bandit", "thompson", "static"} {
			s := *snap
			s.Policy = PolicySnapshot{Kind: kind}
			var se *SnapshotError
			if _, err := RestoreAgent(&s); !errors.As(err, &se) {
				t.Fatalf("%s: want *SnapshotError, got %v", kind, err)
			}
		}
	})

	t.Run("out of range forced arm", func(t *testing.T) {
		s := *snap
		s.Forced = []int{99}
		var se *SnapshotError
		if _, err := RestoreAgent(&s); !errors.As(err, &se) {
			t.Fatalf("want *SnapshotError, got %v", err)
		}
	})

	t.Run("forced arms not a sweep tail", func(t *testing.T) {
		// A sweep runs the arms in order, so the pending forced arms of
		// a 3-arm agent are {}, {2}, {1,2} or {0,1,2}.
		for _, forced := range [][]int{{0, 1}, {2, 1}, {1}, {0, 0, 1, 2}} {
			s := *snap
			s.Forced = forced
			var se *SnapshotError
			if _, err := RestoreAgent(&s); !errors.As(err, &se) {
				t.Errorf("forced %v: want *SnapshotError, got %v", forced, err)
			}
		}
	})

	t.Run("huge arm count", func(t *testing.T) {
		// The arm count sizes the restored agent's tables; an
		// inconsistent one must be rejected before anything is sized.
		s := *snap
		s.Arms = 1 << 62
		var se *SnapshotError
		if _, err := RestoreAgent(&s); !errors.As(err, &se) {
			t.Fatalf("want *SnapshotError, got %v", err)
		}
	})

	t.Run("nil snapshot", func(t *testing.T) {
		if _, err := RestoreAgent(nil); err == nil {
			t.Fatal("want error for nil snapshot")
		}
		if _, err := RestoreSelector(nil); err == nil {
			t.Fatal("want error for nil meta snapshot")
		}
	})
}

// TestSnapshotUnsnapshotablePolicy ensures a custom user policy produces
// a typed error, not a panic.
func TestSnapshotUnsnapshotablePolicy(t *testing.T) {
	a := MustNew(Config{Arms: 2, Policy: customPolicy{}, Seed: 1})
	var se *SnapshotError
	if _, err := a.Snapshot(); !errors.As(err, &se) {
		t.Fatalf("want *SnapshotError for custom policy, got %v", err)
	}
}

type customPolicy struct{}

func (customPolicy) Name() string                       { return "custom" }
func (customPolicy) NextArm(*Tables, *xrand.Rand) int   { return 0 }
func (customPolicy) UpdateSelections(t *Tables, a int)  { t.N[a]++; t.NTotal++ }
func (customPolicy) UpdateReward(*Tables, int, float64) {}
func (customPolicy) Reset()                             {}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzAgentSnapshotCodec hammers the snapshot decoder with arbitrary
// bytes: it must never panic, and any input it accepts must re-encode to
// a snapshot it accepts again (decode is a retraction onto valid state).
func FuzzAgentSnapshotCodec(f *testing.F) {
	for name, mk := range snapshotPolicies() {
		a := MustNew(Config{
			Arms: 3, Policy: mk(), Normalize: true,
			RRRestartProb: 0.01, Seed: 5, RecordTrace: name == "ducb",
		})
		drive(a, 0, 25)
		if s, err := a.Snapshot(); err == nil {
			if b, err := json.Marshal(s); err == nil {
				f.Add(b)
			}
		}
	}
	f.Add([]byte(`{"v":1}`))
	f.Add([]byte(`{"v":1,"arms":1,"policy":{"kind":"ucb"},"rtable":[0],"ntable":[0],"rng":[1,2,3,4]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	// Cross-version corpus: the same agent payload travels embedded in
	// v1 per-session checkpoint records and reassembled from v2 slab
	// columns, so the codec sees both generations' idioms — minimal
	// fields, every optional field, a nearby future version, and damaged
	// variants of a live snapshot (truncation, a flipped byte).
	f.Add([]byte(`{"v":1,"arms":2,"policy":{"kind":"eps","epsilon":0.1},"seed":7,"rtable":[0.5,0.25],"ntable":[3,1],"ntotal":4,"steps":4,"current_arm":1,"rng":[9,8,7,6]}`))
	f.Add([]byte(`{"v":1,"arms":3,"policy":{"kind":"ducb","c":0.5,"gamma":0.99},"normalize":true,"rr_restart_prob":0.01,"seed":5,"record_trace":true,"rtable":[0.1,0.2,0.3],"ntable":[1,2,3],"ntotal":6,"steps":6,"current_arm":2,"in_step":true,"forced":[0,1],"ravg":0.2,"normalized":true,"restarts":1,"trace":[0,1,2],"rng":[1,2,3,4]}`))
	f.Add([]byte(`{"v":2,"arms":3,"policy":{"kind":"ducb","c":0.5,"gamma":0.99},"seed":5,"rtable":[0,0,0],"ntable":[0,0,0],"ntotal":0,"steps":0,"current_arm":0,"rng":[1,2,3,4]}`))
	if s, err := MustNew(Config{Arms: 4, Policy: NewDUCB(0.5, 0.99), Seed: 3}).Snapshot(); err == nil {
		if b, err := json.Marshal(s); err == nil {
			f.Add(b[:len(b)/2]) // truncated mid-token
			flipped := append([]byte(nil), b...)
			flipped[len(flipped)/3] ^= 0x20
			f.Add(flipped) // one damaged byte
		}
	}
	// Removed features: the Thompson and static policy kinds are refused,
	// and Thompson's sigma hyperparameter is an unknown field, ignored on
	// any other kind.
	f.Add([]byte(`{"v":1,"arms":2,"policy":{"kind":"thompson","sigma":0.04,"gamma":0.999},"seed":1,"rtable":[0,0],"ntable":[0,0],"ntotal":0,"steps":0,"current_arm":0,"rng":[1,2,3,4]}`))
	f.Add([]byte(`{"v":1,"arms":3,"policy":{"kind":"static","arm":2},"seed":1,"rtable":[0,0,0],"ntable":[0,0,0],"ntotal":0,"steps":0,"current_arm":0,"rng":[1,2,3,4]}`))
	f.Add([]byte(`{"v":1,"arms":2,"policy":{"kind":"ducb","c":0.04,"gamma":0.999,"sigma":0.04},"seed":1,"rtable":[0.5,0.25],"ntable":[1,1],"ntotal":2,"steps":2,"current_arm":1,"rng":[1,2,3,4]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := RestoreAgentJSON(data)
		if err != nil {
			return
		}
		// Accepted input must be usable and re-snapshotable. A snapshot
		// taken mid-step restores with the step still open: close it.
		if a.StepOpen() {
			a.Reward(1)
		}
		arm := a.Step()
		if arm < 0 || arm >= a.Arms() {
			t.Fatalf("restored agent chose arm %d of %d", arm, a.Arms())
		}
		a.Reward(1)
		s, err := a.Snapshot()
		if err != nil {
			t.Fatalf("re-snapshot of accepted input: %v", err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-marshal of accepted input: %v", err)
		}
		if _, err := RestoreAgentJSON(b); err != nil {
			t.Fatalf("re-restore of accepted input: %v", err)
		}
	})
}

// TestRestoreAgentContinuesStream checks that an agent restored from a
// snapshot continues the original agent's exact decision stream for
// every configuration of the equivalence matrix.
func TestRestoreAgentContinuesStream(t *testing.T) {
	for name, cfg := range policyConfigs() {
		t.Run(name, func(t *testing.T) {
			orig := MustNew(cfg)
			drive(orig, 0, 50)
			snap, err := orig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreAgent(snap)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(drive(orig, 50, 80), drive(restored, 50, 80)) {
				t.Fatal("restored agent diverged from original")
			}
		})
	}
}

// TestSnapshotEveryStepThroughSweeps snapshots an agent before and inside
// every step of its initial round-robin phase and of its §4.3 restart
// sweeps, and checks that each restored agent continues the original
// arm stream to the end.
func TestSnapshotEveryStepThroughSweeps(t *testing.T) {
	const arms, steps = 4, 80
	cfg := func() Config {
		return Config{Arms: arms, Policy: NewDUCB(0.05, 0.99), Normalize: true, RRRestartProb: 0.2, Seed: 8}
	}
	want := drive(MustNew(cfg()), 0, steps)

	// check restores s and drives it from step i (with its step already
	// open when open is set) to the end of the reference stream.
	check := func(s *AgentSnapshot, i int, open bool) {
		t.Helper()
		r, err := RestoreAgent(s)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, next := []int{}, i
		if open {
			got = append(got, r.CurrentArm())
			r.Reward(stepReward(r.CurrentArm(), i))
			next++
		}
		got = append(got, drive(r, next, steps-next)...)
		if !reflect.DeepEqual(got, want[len(want)-len(got):]) {
			t.Fatalf("restored at step %d (open %v): arms %v, want %v", i, open, got, want[len(want)-len(got):])
		}
	}
	a := MustNew(cfg())
	restartSnaps := 0
	for i := 0; i < steps; i++ {
		before, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		check(before, i, false)
		arm := a.Step()
		mid, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if mid.Steps >= arms && len(mid.Forced) > 0 {
			restartSnaps++
		}
		check(mid, i, true)
		a.Reward(stepReward(arm, i))
	}
	if a.Restarts() == 0 || restartSnaps == 0 {
		t.Fatalf("no snapshot inside a restart sweep (restarts %d)", a.Restarts())
	}
}
