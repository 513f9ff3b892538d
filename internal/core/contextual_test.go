package core

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSignaturePacking(t *testing.T) {
	s := MakeSignature(37, 4, 3)
	if s.Phase() != 37 || s.MPKIBand() != 4 || s.BWBand() != 3 {
		t.Fatalf("packed fields round-trip: %v -> p%d m%d b%d", s, s.Phase(), s.MPKIBand(), s.BWBand())
	}
	// Out-of-range inputs are masked, never bleed into other fields.
	s = MakeSignature(0x1ffff, 0x102, 0x203)
	if s.Phase() != 0xffff || s.MPKIBand() != 0x02 || s.BWBand() != 0x03 {
		t.Fatalf("masking: %v -> p%d m%d b%d", s, s.Phase(), s.MPKIBand(), s.BWBand())
	}
	if got := s.String(); got == "" {
		t.Fatal("empty signature string")
	}
}

func TestBanding(t *testing.T) {
	mpki := []struct {
		in   float64
		band int
	}{
		{0, 0}, {0.49, 0}, {0.5, 1}, {1.9, 1}, {2, 2}, {7.9, 2},
		{8, 3}, {31, 3}, {32, 4}, {127, 4}, {128, 5}, {1e9, 5},
		{-1, 0},
	}
	for _, c := range mpki {
		if got := BandMPKI(c.in); got != c.band {
			t.Errorf("BandMPKI(%v) = %d, want %d", c.in, got, c.band)
		}
	}
	bw := []struct {
		in   float64
		band int
	}{{0, 0}, {0.25, 0}, {0.26, 1}, {0.5, 1}, {0.51, 2}, {0.75, 2}, {0.76, 3}, {1, 3}, {2, 3}, {-1, 0}}
	for _, c := range bw {
		if got := BandBW(c.in); got != c.band {
			t.Errorf("BandBW(%v) = %d, want %d", c.in, got, c.band)
		}
	}
}

// contextualReward is a deterministic arm- and context-dependent reward:
// each context has a different best arm, so a context-blind agent cannot
// satisfy both.
func contextualReward(sig Signature, arm, step int) float64 {
	best := int(sig) % 4
	if arm == best {
		return 1.0
	}
	return 0.2 + 0.01*float64((arm+step)%7)
}

// TestContextualAgentMatchesStandalonePerContext interleaves two contexts
// and checks each context's decision stream is bit-identical to a
// standalone Agent with that context's derived seed, fed only its own
// steps — contexts are fully independent.
func TestContextualAgentMatchesStandalonePerContext(t *testing.T) {
	const arms, seed = 4, 99
	ca, err := NewContextualAgent(ContextualConfig{Arms: arms, Algo: "ducb", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sigs := []Signature{MakeSignature(1, 2, 0), MakeSignature(2, 5, 3)}
	ref := make(map[Signature]*Agent)
	refSteps := make(map[Signature]int)
	for _, sig := range sigs {
		cfg, err := AlgoConfig("ducb", arms, contextSeed(seed, sig), false)
		if err != nil {
			t.Fatal(err)
		}
		ref[sig] = MustNew(cfg)
	}
	for i := 0; i < 400; i++ {
		sig := sigs[i%len(sigs)]
		ca.SetContext(sig)
		got := ca.Step()
		want := ref[sig].Step()
		if got != want {
			t.Fatalf("step %d (context %v): arm %d, standalone chose %d", i, sig, got, want)
		}
		r := contextualReward(sig, got, refSteps[sig])
		ca.Reward(r)
		ref[sig].Reward(r)
		refSteps[sig]++
	}
	if ca.Contexts() != 2 || ca.StepsTaken() != 400 {
		t.Fatalf("contexts=%d steps=%d after the run", ca.Contexts(), ca.StepsTaken())
	}
}

func TestContextualRewardLandsInOpeningContext(t *testing.T) {
	ca, err := NewContextualAgent(ContextualConfig{Arms: 2, Algo: "ucb", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := MakeSignature(1, 0, 0), MakeSignature(2, 0, 0)
	ca.SetContext(a)
	ca.Step()
	// A context switch arriving mid-step must not redirect the open reward.
	ca.SetContext(b)
	ca.Reward(5)
	if got := ca.ContextAgent(a).Rewards()[0]; got != 5 {
		t.Fatalf("context %v rTable[0] = %v, want the open step's reward", a, got)
	}
	if ca.ContextAgent(b) != nil {
		t.Fatalf("context %v materialized before its first Step", b)
	}
	// The next step then runs in the switched-to context.
	ca.Step()
	ca.Reward(1)
	if ca.ContextAgent(b) == nil || ca.ContextAgent(b).StepsTaken() != 1 {
		t.Fatal("pending context did not take the next step")
	}
}

func TestContextualProtocolPanics(t *testing.T) {
	ca, err := NewContextualAgent(ContextualConfig{Arms: 2, Algo: "eps", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Reward without Step", func() { ca.Reward(1) })
	ca.Step()
	mustPanic("double Step", func() { ca.Step() })
}

func TestContextualLRUEviction(t *testing.T) {
	ca, err := NewContextualAgent(ContextualConfig{Arms: 2, Algo: "ducb", Seed: 7, MaxContexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2, s3 := MakeSignature(1, 0, 0), MakeSignature(2, 0, 0), MakeSignature(3, 0, 0)
	step := func(sig Signature, n int) {
		for i := 0; i < n; i++ {
			ca.SetContext(sig)
			ca.Step()
			ca.Reward(1)
		}
	}
	step(s1, 5)
	step(s2, 5)
	step(s1, 1) // s1 is now more recent than s2
	step(s3, 1) // over the bound: s2 (LRU) must go
	if ca.Contexts() != 2 || ca.Evictions() != 1 {
		t.Fatalf("contexts=%d evictions=%d, want 2/1", ca.Contexts(), ca.Evictions())
	}
	if ca.ContextAgent(s2) != nil {
		t.Fatal("LRU context survived eviction")
	}
	if ca.ContextAgent(s1) == nil || ca.ContextAgent(s3) == nil {
		t.Fatal("recently used contexts were evicted")
	}
	// A re-visited evicted context starts fresh (paid exploration again),
	// with the same derived seed as its first life.
	step(s2, 1)
	if got := ca.ContextAgent(s2).StepsTaken(); got != 1 {
		t.Fatalf("revived context has %d steps, want a fresh agent", got)
	}
	if ca.Evictions() != 2 {
		t.Fatalf("reviving s2 should evict again, evictions=%d", ca.Evictions())
	}
}

func TestContextualDefaultContextIsZeroSignature(t *testing.T) {
	// Without SetContext the agent runs a single context keyed by the
	// zero signature — context-free callers get plain bandit behavior.
	ca, err := NewContextualAgent(ContextualConfig{Arms: 3, Algo: "ducb", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := AlgoConfig("ducb", 3, contextSeed(11, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	ref := MustNew(cfg)
	for i := 0; i < 100; i++ {
		got, want := ca.Step(), ref.Step()
		if got != want {
			t.Fatalf("step %d: arm %d, want %d", i, got, want)
		}
		r := 0.1 * float64((got*i)%11)
		ca.Reward(r)
		ref.Reward(r)
	}
	if ca.Contexts() != 1 {
		t.Fatalf("context-free run grew %d contexts", ca.Contexts())
	}
}

func TestContextualSnapshotRoundTrip(t *testing.T) {
	// The registry's ctx-ducb, plus per-context UCB built directly.
	for _, base := range []string{"ducb", "ucb"} {
		t.Run("ctx-"+base, func(t *testing.T) {
			ca, err := NewContextualAgent(ContextualConfig{Arms: 4, Algo: base, Seed: 42, MaxContexts: 3})
			if err != nil {
				t.Fatal(err)
			}
			sigs := []Signature{MakeSignature(1, 1, 0), MakeSignature(2, 3, 1), MakeSignature(3, 5, 2)}
			for i := 0; i < 123; i++ {
				sig := sigs[i%len(sigs)]
				ca.SetContext(sig)
				arm := ca.Step()
				ca.Reward(contextualReward(sig, arm, i))
			}
			// Leave a step open so the open-context path is exercised too.
			ca.SetContext(sigs[1])
			openArm := ca.Step()

			snap, err := ca.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreContextualAgentJSON(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !restored.StepOpen() {
				t.Fatal("open step lost across restore")
			}
			snap2, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			raw2, err := json.Marshal(snap2)
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) != string(raw2) {
				t.Fatalf("snapshot not byte-stable across restore:\n%s\n%s", raw, raw2)
			}

			// Behavioral identity: both finish the open step and continue.
			ca.Reward(0.5)
			restored.Reward(0.5)
			_ = openArm
			for i := 0; i < 200; i++ {
				sig := sigs[(i*7)%len(sigs)]
				ca.SetContext(sig)
				restored.SetContext(sig)
				got, want := restored.Step(), ca.Step()
				if got != want {
					t.Fatalf("step %d after restore: arm %d, original %d", i, got, want)
				}
				r := contextualReward(sig, want, i)
				ca.Reward(r)
				restored.Reward(r)
			}
		})
	}
}

func TestContextualSnapshotValidation(t *testing.T) {
	ca, err := NewContextualAgent(ContextualConfig{Arms: 3, Algo: "ducb", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ca.SetContext(MakeSignature(i%2, 0, 0))
		ca.Step()
		ca.Reward(1)
	}
	base, err := ca.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*ContextualAgentSnapshot)) error {
		raw, _ := json.Marshal(base)
		var s ContextualAgentSnapshot
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		f(&s)
		_, err := RestoreContextualAgent(&s)
		return err
	}
	cases := []struct {
		name string
		f    func(*ContextualAgentSnapshot)
	}{
		{"context arm count disagrees", func(s *ContextualAgentSnapshot) { s.Contexts[0].Agent.Arms = 7 }},
		{"duplicate signature", func(s *ContextualAgentSnapshot) { s.Contexts[1].Sig = s.Contexts[0].Sig }},
		{"unknown base algorithm", func(s *ContextualAgentSnapshot) { s.Algo = "nope" }},
		{"contextual name as base", func(s *ContextualAgentSnapshot) { s.Algo = "ctx-ducb" }},
		{"open context missing", func(s *ContextualAgentSnapshot) { s.InStep = true; s.OpenSig = 0xdead }},
		{"open-step disagreement", func(s *ContextualAgentSnapshot) {
			s.InStep = true
			s.OpenSig = s.Contexts[0].Sig // context 0's agent has no open step
		}},
		{"stray per-context open step", func(s *ContextualAgentSnapshot) { s.Contexts[1].Agent.InStep = true }},
		{"over the context bound", func(s *ContextualAgentSnapshot) { s.MaxContexts = 1 }},
		{"bad version", func(s *ContextualAgentSnapshot) { s.V = 99 }},
	}
	for _, c := range cases {
		if err := mutate(c.f); err == nil {
			t.Errorf("%s: restore accepted a corrupt snapshot", c.name)
		}
	}
	if _, err := RestoreContextualAgent(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := RestoreContextualAgentJSON([]byte("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
}

func TestContextualRegistry(t *testing.T) {
	ctrl, err := ParseAlgo("ctx-ducb", 4, 9, false)
	if err != nil {
		t.Fatalf("ParseAlgo(ctx-ducb): %v", err)
	}
	if _, ok := ctrl.(*ContextualAgent); !ok {
		t.Fatalf("ParseAlgo(ctx-ducb) = %T, want *ContextualAgent", ctrl)
	}
	if _, ok := ctrl.(ContextSetter); !ok {
		t.Fatal("ParseAlgo(ctx-ducb) does not accept contexts")
	}
	if _, err := AlgoConfig("ctx-ducb", 4, 9, false); err == nil {
		t.Fatal("AlgoConfig(ctx-ducb) accepted a contextual name")
	}
	// Removed names are refused with the valid list, by the registry and
	// as a contextual base alike.
	valid := strings.Join(AlgoNames(), ", ")
	for _, name := range []string{"thompson", "linucb", "ctx-thompson"} {
		if _, err := ParseAlgo(name, 4, 9, false); err == nil || !strings.Contains(err.Error(), valid) {
			t.Errorf("ParseAlgo(%s) = %v, want an error listing %q", name, err, valid)
		}
		if _, err := NewContextualAgent(ContextualConfig{Arms: 4, Algo: name, Seed: 1}); err == nil {
			t.Errorf("NewContextualAgent accepted base %q", name)
		}
	}
	if _, err := NewContextualAgent(ContextualConfig{Arms: 4, Algo: "single", Seed: 1}); err != nil {
		t.Fatalf("heuristic base policies should be allowed: %v", err)
	}
	if _, err := NewContextualAgent(ContextualConfig{Arms: 0, Algo: "ducb"}); err == nil {
		t.Fatal("zero arms accepted")
	}
	if _, err := NewContextualAgent(ContextualConfig{Arms: 2, Algo: "ducb", MaxContexts: -1}); err == nil {
		t.Fatal("negative context bound accepted")
	}
}
