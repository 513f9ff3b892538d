package harness

import (
	"testing"
)

// The parallel engine's contract: any worker count produces the exact
// bytes a serial run produces. These tests run two prefetch-side
// experiments (Table 8, Fig. 8) and two SMT-side ones (Fig. 13, Fig. 15)
// at Workers=1 and Workers=8 on the Smoke preset and require identical
// rendered output and identical CSV rows.

func smokeDeterminism() Options {
	o := Smoke()
	// Trim within Smoke so the 2×(serial+parallel) runs stay test-sized.
	o.Insts = 150_000
	o.StepL2 = 150
	o.SMTCycles = 150_000
	o.MaxMixes = 2
	return o
}

func assertWorkersInvariant(t *testing.T, id string) {
	t.Helper()
	serial := smokeDeterminism()
	serial.Workers = 1
	parallel := smokeDeterminism()
	parallel.Workers = 8

	e, ok := Find(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	textS, csvS := e.Run(serial)
	textP, csvP := e.Run(parallel)
	if textS != textP {
		t.Errorf("%s: rendered output differs between Workers=1 and Workers=8\n--- serial ---\n%s\n--- parallel ---\n%s",
			id, textS, textP)
	}
	if csvS != csvP {
		t.Errorf("%s: CSV rows differ between Workers=1 and Workers=8\n--- serial ---\n%s\n--- parallel ---\n%s",
			id, csvS, csvP)
	}
}

func TestTable8DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertWorkersInvariant(t, "table8")
}

func TestFig8DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertWorkersInvariant(t, "fig8")
}

// Fig. 13 runs one job per (mix, Choi/ICount/Bandit run); each run derives
// its own seed, so the job split cannot reach the output.
func TestFig13DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertWorkersInvariant(t, "fig13")
}

func TestFig15DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertWorkersInvariant(t, "fig15")
}
