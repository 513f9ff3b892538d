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
// chunk_hit_rate and ff_coverage; a cache-backed warm source (the third
// on its key) reports a full hit rate; and with the flag clear the
// fields are absent, so recorded streams stay byte-identical with
// pre-flag builds.
func TestObsSimCounterFields(t *testing.T) {
	app, err := trace.ByName("lbm17")
	if err != nil {
		t.Fatal(err)
	}

	// The first source on a key stores nothing, the second populates the
	// cache and the third replays it.
	cc := trace.NewChunkCache(0)
	cold := runWithObs(t, cc.Source("lbm17:1", app.New(1)), true)
	populate := runWithObs(t, cc.Source("lbm17:1", app.New(1)), true)
	warm := runWithObs(t, cc.Source("lbm17:1", app.New(1)), true)
	for name, intervals := range map[string][]obs.Event{"cold": cold, "populate": populate, "warm": warm} {
		sawFF := false
		for _, e := range intervals {
			hr, ok := e.Fields.Get(obs.FieldChunkHitRate)
			if !ok {
				t.Fatalf("%s: interval missing chunk_hit_rate", name)
			}
			cov, ok := e.Fields.Get(obs.FieldFFCoverage)
			if !ok {
				t.Fatalf("%s: interval missing ff_coverage", name)
			}
			if hr < 0 || hr > 1 || cov < 0 || cov > 1 {
				t.Fatalf("%s: rates out of range: hit %v, ff %v", name, hr, cov)
			}
			if cov > 0 {
				sawFF = true
			}
		}
		if !sawFF {
			t.Errorf("%s: no interval reported fast-forward coverage > 0", name)
		}
	}
	// The warm run replays every chunk from the cache, so any interval
	// with cache traffic must report a full hit rate.
	sawHit := false
	for _, e := range warm {
		if hr, _ := e.Fields.Get(obs.FieldChunkHitRate); hr > 0 {
			sawHit = true
			if hr != 1 {
				t.Fatalf("warm run hit rate = %v, want 1", hr)
			}
		}
	}
	if !sawHit {
		t.Error("warm run reported no chunk-cache hits")
	}

	for _, e := range runWithObs(t, app.New(1), false) {
		if _, ok := e.Fields.Get(obs.FieldChunkHitRate); ok {
			t.Fatal("chunk_hit_rate emitted with ObsSimCounters off")
		}
		if _, ok := e.Fields.Get(obs.FieldFFCoverage); ok {
			t.Fatal("ff_coverage emitted with ObsSimCounters off")
		}
	}
}
