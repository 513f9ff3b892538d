package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"microbandit/internal/trace"
)

// mainArg, as the test binary's first argument, makes it run the
// command's main with the remaining arguments instead of the tests, so
// the tests drive the real flag parsing, fan-out, report printing and
// telemetry files.
const mainArg = "mab-prefetch-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append([]string{"mab-prefetch"}, os.Args[2:]...)
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
		t.Fatalf("mab-prefetch %v: %v\n%s", args, err, stderr)
	}
	return out
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestFanOutGolden pins the command's output over two catalog apps,
// clean and under faults with the simulator fields: the printed reports
// (arm traces included) and the telemetry JSONL must hash to the
// recorded values at both -j 1 and -j 2.
func TestFanOutGolden(t *testing.T) {
	cases := []struct {
		name              string
		extra             []string
		report, telemetry string
	}{
		{"clean", nil,
			"1494e09856f62254c880d525112783e0fc1c49b45b5341532a9787f560a95f0b",
			"52d3f1380090a087353e01c17b275db4566e665d356625a55edb71bf46d15a3f"},
		{"faults", []string{"-faults", "noise:0.5,stuckarm:0.5", "-sim-fields"},
			"282bdfa741516d292c7715ee982f284e797644eae147ba350aff5a473951084e",
			"5e36ddc281eac32508a5a45c2f9b6a1309984fd24b248d2f2d8a98b46e944161"},
	}
	for _, c := range cases {
		for _, j := range []string{"1", "2"} {
			t.Run(c.name+"/j"+j, func(t *testing.T) {
				jsonl := filepath.Join(t.TempDir(), "t.jsonl")
				args := append([]string{"-app", "lbm17,mcf06", "-insts", "400000", "-trace",
					"-telemetry", jsonl, "-telemetry-every", "10", "-j", j}, c.extra...)
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

// writeTrace records insts instructions of a catalog app at seed 1 into
// dir/<app>.mbt, as mab-trace record does, and returns the path.
func writeTrace(t *testing.T, dir, app string, insts int) string {
	t.Helper()
	a, err := trace.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, app+".mbt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, a.Name)
	if err != nil {
		t.Fatal(err)
	}
	g := a.New(1)
	var inst trace.Inst
	for i := 0; i < insts; i++ {
		g.Next(&inst)
		if err := w.Write(&inst); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceFileGolden runs a recorded trace file as an -app entry and
// checks the recorded results of the trace replay it replaces (4M-inst
// default budget aside, the same step, memory config, DUCB agent and
// seed): insts, cycles, IPC and the telemetry JSONL, for a prefetcher
// without arms, one with, and the bandit.
func TestTraceFileGolden(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, "lbm17", 50_000)
	if b, _ := os.ReadFile(path); sha(b) != "e4c2c482830662852e62fabbc7b91a4831f363b6a0eabcf40b6fd714dba96828" {
		t.Fatalf("trace file sha256 = %s, not the mab-trace record output", sha(b))
	}
	cases := []struct {
		pf, line string
		// JSONL hashes at -telemetry-every 100, at 10, and at 10 with
		// -sim-fields.
		every100, every10, simFields string
	}{
		{"none", "insts=200000 cycles=173345\nIPC: 1.1538",
			"8604e89949399e08f5cd6c77ab45f4cd59c89c2a81848b46985073af9d0ea030",
			"5985ec3eaccbd2ec28b5e941862797f8c8c06735a009cbc0864617033dd1770f",
			"b52d02e737767ed0e51645fb4fb338e9ef5eeb3827d8e2c3b0e2e288b8da3b23"},
		{"stride", "insts=200000 cycles=121213\nIPC: 1.6500",
			"5fd296e0d3b8495bce10f3adceeb45979e8657a1454cda9e3c31b585a5765953",
			"2b70ef07915cda0e1240c19902c4d5a32ed862e931ecb79addadcfe257a7d391",
			"6cc7083b42af8d94c685455b56a1f61ee0e8629cd5c885ce663fe7e17f089d42"},
		{"bandit", "insts=200000 cycles=124004\nIPC: 1.6129",
			"df178e0abefc62d73c035997e9615af37784a10e8e8e126cffc6285ea5dfb649",
			"58a48df6c3ffe1ec825eea98b2715c4c01a1e8152915fb283e32f3a5fcf2af12",
			"2e3897ef48606103df7646e054567bbfa8c9fe1f9b2788fd0171084639598df7"},
	}
	for _, c := range cases {
		t.Run(c.pf, func(t *testing.T) {
			base := []string{"-app", path, "-insts", "200000", "-pf", c.pf}
			want := fmt.Sprintf("app=lbm17 prefetcher=%s %s\n", c.pf, c.line)
			plain := runCmd(t, base...)
			if !bytes.HasPrefix(plain, []byte(want)) {
				t.Fatalf("report starts\n%s\nwant\n%s", plain, want)
			}
			for _, tc := range []struct {
				args []string
				want string
			}{
				{[]string{"-telemetry-every", "100"}, c.every100},
				{[]string{"-telemetry-every", "10"}, c.every10},
				{[]string{"-telemetry-every", "10", "-sim-fields"}, c.simFields},
			} {
				jsonl := filepath.Join(t.TempDir(), "t.jsonl")
				out := runCmd(t, append(append(base, "-telemetry", jsonl), tc.args...)...)
				if !bytes.Equal(out, plain) {
					t.Errorf("%v: report differs from the run without telemetry", tc.args)
				}
				events, err := os.ReadFile(jsonl)
				if err != nil {
					t.Fatal(err)
				}
				if got := sha(events); got != tc.want {
					t.Errorf("%v: telemetry sha256 = %s, want %s", tc.args, got, tc.want)
				}
			}
			// A trace file and a catalog app share one fan-out: the
			// trace's report leads, unchanged, at -j 2.
			mixed := runCmd(t, "-app", path+",mcf06", "-insts", "200000", "-pf", c.pf, "-j", "2")
			if !bytes.HasPrefix(mixed, append(plain, '\n')) || !bytes.Contains(mixed, []byte("app=mcf06")) {
				t.Errorf("mixed fan-out report:\n%s", mixed)
			}
		})
	}
}

// TestBadTraceFileExits2: a trace file that cannot be read, is not a
// trace, is cut mid-instruction or holds no instructions is a bad -app
// value, refused before any simulation starts.
func TestBadTraceFileExits2(t *testing.T) {
	dir := t.TempDir()
	good, err := os.ReadFile(writeTrace(t, dir, "lbm17", 1000))
	if err != nil {
		t.Fatal(err)
	}
	empty := writeTrace(t, dir, "mcf06", 0)
	files := map[string][]byte{
		"garbage.mbt":   []byte("not a trace"),
		"truncated.mbt": good[:len(good)-3],
	}
	paths := []string{filepath.Join(dir, "missing.mbt"), empty}
	for name, b := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	for _, p := range paths {
		cmd := exec.Command(os.Args[0], mainArg, "-app", "mcf06,"+p, "-insts", "200000")
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%s: exit = %v, want status 2\n%s", filepath.Base(p), err, out)
		}
		if first, _, _ := strings.Cut(string(out), "\n"); !strings.Contains(first, p) {
			t.Errorf("%s: error %q does not name the file", filepath.Base(p), first)
		}
		if bytes.Contains(out, []byte("app=")) {
			t.Errorf("%s: a simulation ran before the refusal\n%s", filepath.Base(p), out)
		}
	}
}
