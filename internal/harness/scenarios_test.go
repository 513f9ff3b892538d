package harness

import (
	"bytes"
	"strings"
	"testing"

	"microbandit/internal/obs"
	"microbandit/internal/scenario"
)

// smokeScenarios trims the determinism preset for the scenario matrix
// (5 scenarios x apps x (columns+1) runs).
func smokeScenarios() Options {
	o := smokeDeterminism()
	o.MaxApps = 1
	o.Insts = 100_000
	o.StepL2 = 100
	return o
}

// TestScenariosWithUnknownName pins the error contract the CLIs exit 2
// on: unknown scenario names are rejected up front, naming the valid
// set, and nothing is simulated.
func TestScenariosWithUnknownName(t *testing.T) {
	_, err := ScenariosWith(smokeScenarios(), []string{"dramsched", "bogus"})
	if err == nil {
		t.Fatal("ScenariosWith accepted an unknown scenario name")
	}
	if msg := err.Error(); !strings.Contains(msg, `"bogus"`) || !strings.Contains(msg, "dramsched") {
		t.Errorf("error %q should name the bad input and list valid scenarios", msg)
	}
}

// TestScenariosDeterministicAcrossWorkers extends the engine's
// determinism contract to the scenario experiment: every scenario's
// rendered table and CSV are byte-identical at Workers=1 and Workers=8.
func TestScenariosDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(workers int) ScenariosResult {
		o := smokeScenarios()
		o.Workers = workers
		r, err := ScenariosWith(o, scenario.Names())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rs, rp := run(1), run(8)
	if rs.Render() != rp.Render() {
		t.Errorf("rendered output differs between Workers=1 and Workers=8\n--- serial ---\n%s\n--- parallel ---\n%s",
			rs.Render(), rp.Render())
	}
	if rs.CSV() != rp.CSV() {
		t.Errorf("CSV differs between Workers=1 and Workers=8\n--- serial ---\n%s\n--- parallel ---\n%s",
			rs.CSV(), rp.CSV())
	}
}

// TestScenariosTelemetryDeterministicAcrossWorkers pins the telemetry
// stream: with a Collector installed the assembled JSONL bytes are
// byte-identical at any worker count, and the stream tags every run
// with its scenario.
func TestScenariosTelemetryDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(workers int) []byte {
		o := smokeScenarios()
		o.Workers = workers
		o.Obs = obs.NewCollector(50)
		if _, err := ScenariosWith(o, []string{"dramsched", "pfdegree"}); err != nil {
			t.Fatal(err)
		}
		events := o.Obs.Events()
		if len(events) == 0 {
			t.Fatal("collector captured no events")
		}
		scens := map[string]bool{}
		for _, ev := range events {
			if ev.Kind == obs.KindScenario {
				scens[ev.Label] = true
			}
		}
		if !scens["dramsched"] || !scens["pfdegree"] {
			t.Fatalf("stream tagged scenarios %v, want dramsched and pfdegree", scens)
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, events); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Errorf("JSONL stream differs between Workers=1 and Workers=8")
	}
}

// TestScenariosCSVCoversAll pins the acceptance shape of scenarios.csv:
// every registered scenario appears, every block carries a bandit and a
// robustness column, and each block reports the bandit-vs-best-static
// summary row.
func TestScenariosCSVCoversAll(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := smokeScenarios()
	o.Workers = 4
	r, err := ScenariosWith(o, scenario.Names())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Blocks) != len(scenario.Names()) {
		t.Fatalf("result has %d blocks, want %d", len(r.Blocks), len(scenario.Names()))
	}
	csv := r.CSV()
	for _, name := range scenario.Names() {
		if !strings.Contains(csv, name+",") {
			t.Errorf("CSV missing scenario %q", name)
		}
	}
	for _, b := range r.Blocks {
		if b.Columns[0] != "bandit" {
			t.Errorf("%s: first column %q, want bandit", b.Name, b.Columns[0])
		}
		if last := b.Columns[len(b.Columns)-1]; last != scnRobustColumn {
			t.Errorf("%s: last column %q, want the robustness column", b.Name, last)
		}
		if b.BestStatic == "" {
			t.Errorf("%s: no best-static summary", b.Name)
		}
		for ai, row := range b.IPC {
			for ci, v := range row {
				if !(v > 0) {
					t.Errorf("%s: app %s column %s produced no IPC", b.Name, b.Apps[ai], b.Columns[ci])
				}
			}
		}
	}
	if !strings.Contains(csv, "bandit_vs_best_static") {
		t.Error("CSV missing the bandit_vs_best_static summary rows")
	}
}
