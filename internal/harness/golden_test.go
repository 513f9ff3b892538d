package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"microbandit/internal/fault"
	"microbandit/internal/obs"
	"microbandit/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden experiment hashes in testdata")

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// goldenPath holds the SHA-256 of every experiment's rendered text and
// CSV at tiny(), plus the fault sweep and scenario matrix with their
// telemetry streams.
var goldenPath = filepath.Join("testdata", "golden.json")

// goldenSweep covers every fault kind the single-core prefetch wiring
// handles specially: reward noise and stuck arms wrap the controller
// and the arm surface, bwcollapse installs a DRAM bandwidth fault, and
// phasestorm wraps the trace generator.
func goldenSweep() []fault.Spec {
	return []fault.Spec{
		{Kind: fault.Noise, Intensity: 0.5, Seed: 1},
		{Kind: fault.StuckArm, Intensity: 0.5, Seed: 1},
		{Kind: fault.BWCollapse, Intensity: 1, Seed: 1},
		{Kind: fault.PhaseStorm, Intensity: 1, Seed: 1},
	}
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// telemetryHash hashes a collector's assembled JSONL stream.
func telemetryHash(t *testing.T, c *obs.Collector) string {
	t.Helper()
	events := c.Events()
	if len(events) == 0 {
		t.Fatal("collector captured no events")
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return sha(buf.String())
}

// TestExperimentGolden pins every experiment's output bytes: each
// Experiments() id (its CSV too, where it has one), RobustWith over
// goldenSweep and Scenarios over the whole registry, the last two with
// their telemetry streams. Together they reach every single-core
// prefetch run the harness builds. Re-record with -update only for a
// change meant to alter results.
func TestExperimentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		// Every experiment once at ~10x cost; the Workers=1 vs Workers=8
		// determinism tests already run the same paths under the race
		// detector.
		t.Skip("race detector")
	}
	got := map[string]string{}
	o := tiny()
	for _, e := range Experiments() {
		text, csv := e.Run(o)
		if csv != "" {
			got[e.ID+".csv"] = sha(csv)
		}
		got[e.ID+".render"] = sha(text)
	}

	ro := tiny()
	ro.Obs = obs.NewCollector(50)
	rr := RobustWith(ro, goldenSweep())
	got["robustwith.render"] = sha(rr.Render())
	got["robustwith.csv"] = sha(rr.CSV())
	got["robustwith.telemetry"] = telemetryHash(t, ro.Obs)

	so := tiny()
	so.Obs = obs.NewCollector(50)
	sr, err := ScenariosWith(so, scenario.Names())
	if err != nil {
		t.Fatal(err)
	}
	got["scenarios.render"] = sha(sr.Render())
	got["scenarios.csv"] = sha(sr.CSV())
	got["scenarios.telemetry"] = telemetryHash(t, so.Obs)

	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (re-record with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: recorded but no longer produced", k)
		} else if g != w {
			t.Errorf("%s: hash %s, recorded %s", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: produced but not recorded", k)
		}
	}
}
