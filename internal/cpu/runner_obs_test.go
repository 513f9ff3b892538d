package cpu

import (
	"testing"

	"microbandit/internal/mem"
	"microbandit/internal/obs"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
)

// runWithObs simulates one app through a telemetry-attached runner and
// returns the recorded interval events.
func runWithObs(t *testing.T, gen trace.Generator, simCounters bool) []obs.Event {
	t.Helper()
	hier := mem.NewHierarchy(mem.DefaultConfig())
	c := New(DefaultConfig(), hier, gen)
	col := obs.NewCollector(1)
	r := NewRunner(c, prefetch.Null{}, nil, nil)
	r.StepL2 = 200
	r.Obs = col.Slot(0, gen.Name())
	r.ObsEvery = 1
	r.ObsSimCounters = simCounters
	r.Run(200_000)
	var intervals []obs.Event
	for _, e := range col.Events() {
		if e.Kind == obs.KindInterval {
			intervals = append(intervals, e)
		}
	}
	if len(intervals) == 0 {
		t.Fatal("run emitted no interval events")
	}
	return intervals
}

// TestObsSimCounterFields pins the opt-in simulator-effectiveness
// telemetry: with ObsSimCounters set, every interval carries
// ff_coverage; with the flag clear the field is absent, so recorded
// streams stay byte-identical with pre-flag builds.
func TestObsSimCounterFields(t *testing.T) {
	app, err := trace.ByName("lbm17")
	if err != nil {
		t.Fatal(err)
	}

	sawFF := false
	for _, e := range runWithObs(t, app.New(1), true) {
		cov, ok := e.Fields.Get(obs.FieldFFCoverage)
		if !ok {
			t.Fatal("interval missing ff_coverage")
		}
		if cov < 0 || cov > 1 {
			t.Fatalf("ff_coverage out of range: %v", cov)
		}
		if cov > 0 {
			sawFF = true
		}
	}
	if !sawFF {
		t.Error("no interval reported fast-forward coverage > 0")
	}

	for _, e := range runWithObs(t, app.New(1), false) {
		if _, ok := e.Fields.Get(obs.FieldFFCoverage); ok {
			t.Fatal("ff_coverage emitted with ObsSimCounters off")
		}
	}
}
