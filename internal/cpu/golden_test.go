package cpu

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

	"microbandit/internal/fault"
	"microbandit/internal/mem"
	"microbandit/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden fingerprints in testdata")

// goldenPath holds the recorded per-run fingerprints.
var goldenPath = filepath.Join("testdata", "fingerprints.json")

// goldenInsts is the instruction budget of every fingerprinted run.
const goldenInsts = 400_000

// fingerprint is everything observable about one bandit-controlled run:
// the timing result, the hierarchy counters, the prefetch outcome
// classification, and the arm-selection trace.
type fingerprint struct {
	Insts      int64              `json:"insts"`
	Cycles     int64              `json:"cycles"`
	IPCBits    string             `json:"ipc_bits"`
	Stats      mem.Stats          `json:"stats"`
	Class      mem.Classification `json:"class"`
	ArmSamples int                `json:"arm_samples"`
	ArmSHA256  string             `json:"arm_sha256"`
}

// fingerprintOf summarizes a finished stack.
func fingerprintOf(s epochStack) fingerprint {
	h := sha256.New()
	var buf [16]byte
	for _, a := range s.r.ArmTrace {
		binary.LittleEndian.PutUint64(buf[:8], uint64(a.Cycle))
		binary.LittleEndian.PutUint64(buf[8:], uint64(a.Arm))
		h.Write(buf[:])
	}
	return fingerprint{
		Insts:      s.c.Insts(),
		Cycles:     s.c.Cycles(),
		IPCBits:    fmt.Sprintf("%016x", math.Float64bits(s.c.IPC())),
		Stats:      s.c.Hier().Stats(),
		Class:      s.c.Hier().Classify(),
		ArmSamples: len(s.r.ArmTrace),
		ArmSHA256:  hex.EncodeToString(h.Sum(nil)),
	}
}

// goldenCase is one fingerprinted configuration: a generator factory
// and whether the controller is contextual (the phase-probe path).
type goldenCase struct {
	mk         func() trace.Generator
	contextual bool
}

// goldenCases returns every catalog app under DUCB over the Table 7
// ensemble, plus the contextual mcf17 run and the phase-storm run.
func goldenCases(t testing.TB) map[string]goldenCase {
	cases := make(map[string]goldenCase)
	for _, app := range trace.Catalog() {
		app := app
		cases[app.Name] = goldenCase{mk: func() trace.Generator { return app.New(3) }}
	}
	mcf, err := trace.ByName("mcf17")
	if err != nil {
		t.Fatal(err)
	}
	cases["mcf17+ctx"] = goldenCase{mk: func() trace.Generator { return mcf.New(3) }, contextual: true}
	storm, err := fault.ParseSet("phasestorm:0.9")
	if err != nil {
		t.Fatal(err)
	}
	cases["mcf17+phasestorm:0.9+ctx"] = goldenCase{
		mk:         func() trace.Generator { return fault.Generator(mcf.New(3), storm, 3) },
		contextual: true,
	}
	return cases
}

var (
	goldenOnce sync.Once
	goldenData map[string]fingerprint
	goldenErr  error
)

// loadGolden reads the recorded fingerprints once per test binary.
func loadGolden(t *testing.T) map[string]fingerprint {
	t.Helper()
	goldenOnce.Do(func() {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			goldenErr = err
			return
		}
		goldenErr = json.Unmarshal(b, &goldenData)
	})
	if goldenErr != nil {
		t.Fatalf("golden fingerprints: %v (record with go test ./internal/cpu -run TestGoldenFingerprints -update)", goldenErr)
	}
	return goldenData
}

// checkGolden compares a finished run against its recorded fingerprint.
func checkGolden(t *testing.T, name string, got fingerprint) {
	t.Helper()
	want, ok := loadGolden(t)[name]
	if !ok {
		t.Fatalf("%s: no recorded fingerprint", name)
	}
	if got != want {
		t.Fatalf("%s: fingerprint drifted\n got  %+v\n want %+v", name, got, want)
	}
}

// TestGoldenFingerprints runs every golden case in one Run call and pins
// it against the recorded fingerprint. With -update it re-records the
// file instead; only do that for a change meant to alter simulated
// results.
func TestGoldenFingerprints(t *testing.T) {
	cases := goldenCases(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	var mu sync.Mutex
	recorded := make(map[string]fingerprint, len(cases))
	t.Run("cases", func(t *testing.T) {
		for _, name := range names {
			name, tc := name, cases[name]
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				s := newEpochStack(tc.mk(), 7, tc.contextual)
				s.r.Run(goldenInsts)
				got := fingerprintOf(s)
				if *update {
					mu.Lock()
					recorded[name] = got
					mu.Unlock()
					return
				}
				checkGolden(t, name, got)
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
