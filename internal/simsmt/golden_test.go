package simsmt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"microbandit/internal/smtwork"
)

var update = flag.Bool("update", false, "rewrite the golden fingerprints in testdata")

// goldenPath holds the recorded per-run fingerprints.
var goldenPath = filepath.Join("testdata", "fingerprints.json")

const (
	// goldenSweepCycles is the budget of the all-mixes Choi sweep.
	goldenSweepCycles = 20_000
	// goldenCycles is the budget of every per-mode run.
	goldenCycles = 200_000
	// goldenEpoch is the Hill Climbing / ARPA epoch of every run, small
	// enough that the controllers move many times within the budget.
	goldenEpoch = 4096
)

// fingerprint is everything observable about one finished run.
type fingerprint struct {
	Cycle       int64       `json:"cycle"`
	Committed   [2]int64    `json:"committed"`
	Rename      RenameStats `json:"rename"`
	OccIntegral [2]int64    `json:"occ_integral"`
	Occupancies string      `json:"occupancies"`
	SumIPCBits  string      `json:"sum_ipc_bits"`
	ArmSamples  int         `json:"arm_samples"`
	ArmSHA256   string      `json:"arm_sha256"`
}

// fingerprintOf summarizes a finished pipeline and its arm trace.
func fingerprintOf(s *SMT, arms []ArmSample) fingerprint {
	h := sha256.New()
	var buf [16]byte
	for _, a := range arms {
		binary.LittleEndian.PutUint64(buf[:8], uint64(a.Cycle))
		binary.LittleEndian.PutUint64(buf[8:], uint64(a.Arm))
		h.Write(buf[:])
	}
	return fingerprint{
		Cycle:       s.Cycle(),
		Committed:   [2]int64{s.Committed(0), s.Committed(1)},
		Rename:      s.RenameStats(),
		OccIntegral: [2]int64{s.OccupancyIntegral(0), s.OccupancyIntegral(1)},
		Occupancies: s.Occupancies(),
		SumIPCBits:  fmt.Sprintf("%016x", math.Float64bits(s.SumIPC())),
		ArmSamples:  len(arms),
		ArmSHA256:   hex.EncodeToString(h.Sum(nil)),
	}
}

// goldenMixes are the per-mode mixes: the smoke-preset Fig. 13 mixes, the
// Fig. 7 SMT panels, and three DRAM- or SQ-bound stress pairs.
var goldenMixes = [][2]string{
	{"gcc", "mcf"}, {"cactuBSSN", "parest"}, {"fotonik3d", "xz"},
	{"gcc", "lbm"}, {"cactuBSSN", "lbm"},
	{"mcf", "lbm"}, {"lbm", "fotonik3d"}, {"exchange2", "mcf"},
}

// goldenModes runs one mix under one driver and returns its fingerprint.
var goldenModes = map[string]func(t *testing.T, a, b smtwork.Profile, seed uint64) fingerprint{
	// ICount without Hill Climbing.
	"icount": func(_ *testing.T, a, b smtwork.Profile, seed uint64) fingerprint {
		sim := NewSim(a, b, seed)
		r := NewFixedRunner(sim, ICountPolicy, false)
		r.EpochLen = goldenEpoch
		r.RunCycles(goldenCycles)
		return fingerprintOf(sim, nil)
	},
	// The DUCB bandit over the Table 1 arms, with Hill Climbing.
	"bandit": func(_ *testing.T, a, b smtwork.Profile, seed uint64) fingerprint {
		sim := NewSim(a, b, seed)
		r := NewRunner(sim, NewBanditAgent(seed), Table1Arms(), true)
		r.EpochLen = goldenEpoch
		r.RREpochs = 4
		r.MainEpochs = 2
		r.RecordArms()
		r.RunCycles(goldenCycles)
		return fingerprintOf(sim, r.ArmTrace)
	},
	// ARPA partitioning under Choi's policy.
	"arpa": func(_ *testing.T, a, b smtwork.Profile, seed uint64) fingerprint {
		sim := NewSim(a, b, seed)
		r := NewARPARunner(sim, ChoiPolicy)
		r.EpochLen = goldenEpoch
		r.RunCycles(goldenCycles)
		return fingerprintOf(sim, nil)
	},
	// The SoloIPC baseline set-up: thread 0 alone under ICount.
	"solo": func(t *testing.T, a, _ smtwork.Profile, seed uint64) fingerprint {
		sim := NewSim(a, a, seed)
		sim.DisableThread(1)
		sim.SetPolicy(ICountPolicy)
		sim.RunCycles(goldenCycles)
		if got, want := SoloIPC(a, seed, goldenCycles), float64(sim.Committed(0))/float64(sim.Cycle()); got != want {
			t.Errorf("SoloIPC = %v, its set-up here gives %v", got, want)
		}
		return fingerprintOf(sim, nil)
	},
	// The commit-count stop under Choi's policy; the DRAM-bound mixes
	// stop at the cycle cap instead.
	"until": func(_ *testing.T, a, b smtwork.Profile, seed uint64) fingerprint {
		sim := NewSim(a, b, seed)
		sim.RunUntilCommitted(60_000, goldenCycles)
		return fingerprintOf(sim, nil)
	},
}

// goldenCase is one fingerprinted run.
type goldenCase func(t *testing.T) fingerprint

// goldenCases returns every mix under the fixed Choi + Hill Climbing
// runner, plus every goldenMixes entry under every goldenModes driver.
func goldenCases(t *testing.T) map[string]goldenCase {
	cases := make(map[string]goldenCase)
	for i, mix := range smtwork.Mixes() {
		seed := uint64(i + 1)
		cases["choi/"+mix.Name()] = func(*testing.T) fingerprint {
			sim := NewSim(mix.A, mix.B, seed)
			r := NewFixedRunner(sim, ChoiPolicy, true)
			r.EpochLen = goldenEpoch / 2
			r.RunCycles(goldenSweepCycles)
			return fingerprintOf(sim, nil)
		}
	}
	for i, pair := range goldenMixes {
		a, b := mustProfile(t, pair[0]), mustProfile(t, pair[1])
		seed := uint64(100 + i)
		for mode, run := range goldenModes {
			cases[mode+"/"+pair[0]+"-"+pair[1]] = func(t *testing.T) fingerprint { return run(t, a, b, seed) }
		}
	}
	return cases
}

// TestGoldenFingerprints runs every golden case and pins it against the
// recorded fingerprint. With -update it re-records the file instead; only
// do that for a change meant to alter simulated results.
func TestGoldenFingerprints(t *testing.T) {
	cases := goldenCases(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	var want map[string]fingerprint
	if !*update {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("golden fingerprints: %v (record with go test ./internal/simsmt -run TestGoldenFingerprints -update)", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(cases) {
			t.Errorf("recorded %d fingerprints, have %d cases", len(want), len(cases))
		}
	}

	var mu sync.Mutex
	recorded := make(map[string]fingerprint, len(cases))
	t.Run("cases", func(t *testing.T) {
		for _, name := range names {
			run := cases[name]
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				got := run(t)
				if *update {
					mu.Lock()
					recorded[name] = got
					mu.Unlock()
					return
				}
				w, ok := want[name]
				if !ok {
					t.Fatalf("%s: no recorded fingerprint", name)
				}
				if got != w {
					t.Fatalf("%s: fingerprint drifted\n got  %+v\n want %+v", name, got, w)
				}
			})
		}
	})
	if !*update || t.Failed() {
		return
	}
	b, err := json.MarshalIndent(recorded, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
