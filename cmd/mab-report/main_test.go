package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// mainArg, as the test binary's first argument, makes it run the
// command's main with the remaining arguments instead of the tests, so
// the tests drive the real flag parsing and exit paths.
const mainArg = "mab-report-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append([]string{"mab-report"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagValuesExitBeforeProfiling checks that each bad value of
// -exp, -faults and -scenario exits 2 without starting the -pprof
// capture, so no empty cpu.pprof is left behind.
func TestBadFlagValuesExitBeforeProfiling(t *testing.T) {
	for name, args := range map[string][]string{
		"exp":      {"-exp", "bogus"},
		"faults":   {"-robust", "-faults", "bad:1"},
		"scenario": {"-scenarios", "-scenario", "bogus"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "prof")
			cmd := exec.Command(os.Args[0], append([]string{mainArg, "-preset", "smoke", "-pprof", dir}, args...)...)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("mab-report %v: %v, want exit 2\n%s", args, err, out)
			}
			if _, err := os.Stat(filepath.Join(dir, "cpu.pprof")); !os.IsNotExist(err) {
				t.Fatalf("mab-report %v left a cpu.pprof (stat: %v)", args, err)
			}
		})
	}
}
