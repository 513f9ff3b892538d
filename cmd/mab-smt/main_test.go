package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainArg, as the test binary's first argument, makes it run the
// command's main with the remaining arguments instead of the tests, so
// the tests drive the real flag parsing, fan-out, report printing and
// telemetry files.
const mainArg = "mab-smt-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append([]string{"mab-smt"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs the command with args and returns its stdout, failing the
// test on a non-zero exit.
func runCmd(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{mainArg}, args...)...)
	var stderr []byte
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		stderr = ee.Stderr
	}
	if err != nil {
		t.Fatalf("mab-smt %v: %v\n%s", args, err, stderr)
	}
	return out
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestFanOutGolden pins the command's output for every -ctrl form over
// two mixes: the printed reports and the telemetry JSONL must hash to
// the recorded values at both -j 1 and -j 2.
func TestFanOutGolden(t *testing.T) {
	cases := []struct {
		ctrl              string
		trace             bool
		report, telemetry string
	}{
		{"bandit", true,
			"73e9af6b400ffaf36a98f261fa1bd1bd95f390e00a068ff7f05e5c46487e733b",
			"b10a0a5491e5ebaa964151761b4a8c20dbc28e7d52a79ab21136b5655f62cc67"},
		{"choi", false,
			"f38db7c64774238901826878c65d4ee965a3c98aedcb9c17f2771173d488812d",
			"1249675b971195fc8614276209e202760654786d7faff7243d38562084fd459e"},
		{"icount", false,
			"67c986837dc7a8c2efe83670afd0cbb3cf288056bf09f5985c4258ede5033514",
			"a8cb0779cd251ae992abf1a58b753fbc474aa9ff765688ab8028cbc5db21c5ae"},
		{"policy:LSQC_1111", false,
			"3b0b309f8a6675cc9d00761a97fd93eb119f9c881484b1dd01f96083b6be5248",
			"ad7227a3bc2f0d3b4fbee5729785d882c9a8902c946f78ae43824704581a1ae7"},
	}
	for _, c := range cases {
		for _, j := range []string{"1", "2"} {
			t.Run(c.ctrl+"/j"+j, func(t *testing.T) {
				jsonl := filepath.Join(t.TempDir(), "t.jsonl")
				args := []string{"-mix", "gcc-lbm,mcf-lbm", "-ctrl", c.ctrl,
					"-cycles", "400000", "-epoch", "4096", "-rrepochs", "4", "-mainepochs", "2",
					"-telemetry", jsonl, "-telemetry-every", "2", "-j", j}
				if c.trace {
					args = append(args, "-trace")
				}
				out := runCmd(t, args...)
				events, err := os.ReadFile(jsonl)
				if err != nil {
					t.Fatal(err)
				}
				if got := sha(out); got != c.report {
					t.Errorf("report sha256 = %s, want %s\n%s", got, c.report, out)
				}
				if got := sha(events); got != c.telemetry {
					t.Errorf("telemetry sha256 = %s, want %s", got, c.telemetry)
				}
			})
		}
	}
}

// TestUnknownCtrlExits2: a bad -ctrl value is a usage error that lists
// every controller form.
func TestUnknownCtrlExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], mainArg, "-ctrl", "bogus")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2\n%s", err, out)
	}
	first, _, _ := strings.Cut(string(out), "\n")
	for _, name := range []string{"bogus", "bandit", "choi", "icount", "policy:"} {
		if !strings.Contains(first, name) {
			t.Errorf("usage error %q does not mention %q", first, name)
		}
	}
}
