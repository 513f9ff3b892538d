package cli

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"microbandit/internal/harness"
	"microbandit/internal/obs"
	"microbandit/internal/trace"
)

func TestApps(t *testing.T) {
	all, err := Apps("all", false)
	if err != nil || len(all) != len(trace.Catalog()) {
		t.Fatalf("all: %d apps, err %v", len(all), err)
	}
	apps, err := Apps("lbm17, mcf06", false)
	if err != nil || len(apps) != 2 || apps[0].Name != "lbm17" || apps[1].Name != "mcf06" {
		t.Fatalf("list: %v, err %v", apps, err)
	}
	// Without traces a .mbt entry is an unknown app, refused with the
	// catalog; with them it is a file, here a missing one.
	_, err = Apps("lbm17,x.mbt", false)
	if err == nil || !strings.Contains(err.Error(), `unknown app "x.mbt" (valid: gcc06, `) {
		t.Errorf("record-style list: %v", err)
	}
	_, err = Apps("lbm17,x.mbt", true)
	if err == nil || !strings.Contains(err.Error(), "open x.mbt") {
		t.Errorf("trace list: %v", err)
	}
	_, err = Apps("nope", true)
	if err == nil || !strings.Contains(err.Error(), `or "all", or a .mbt trace file)`) {
		t.Errorf("unknown app: %v", err)
	}
}

// TestRunPartialFailure: a failing and a panicking item are reported on
// stderr under their names, the others' reports print in input order,
// every item gets its own telemetry slot, and the exit code is 1.
func TestRunPartialFailure(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr := capture(t, dir)
	f := Fanout{Cmd: "cmd", Workers: 2, Telemetry: filepath.Join(dir, "t.jsonl"), Every: 1, Sep: "\n"}
	items := []string{"a", "bad", "c", "boom", "e"}
	code := Run(f, harness.Options{}, items, func(s string) string { return s },
		func(o harness.Options, s string, rec obs.Recorder) (string, error) {
			if o.Ctx == nil || o.Obs == nil || rec == nil {
				t.Errorf("%s: ctx %v, collector %v, slot %v", s, o.Ctx, o.Obs, rec)
			}
			switch s {
			case "bad":
				return "", errors.New("refused")
			case "boom":
				panic("kaput")
			}
			rec.Record(obs.Event{Kind: obs.KindRunEnd, Label: s})
			return s + "\n", nil
		})
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if got := read(t, stdout); got != "a\n\nc\n\ne\n" {
		t.Errorf("stdout %q", got)
	}
	errs := read(t, stderr)
	for _, want := range []string{"cmd: bad: ", "refused", "cmd: boom: ", "kaput", "cmd: 2 of 5 runs failed"} {
		if !strings.Contains(errs, want) {
			t.Errorf("stderr %q lacks %q", errs, want)
		}
	}
	events, err := os.ReadFile(f.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(events), `"ev":"run_end"`); n != 3 {
		t.Errorf("telemetry holds %d run_end events, want 3:\n%s", n, events)
	}
}

func TestRunClean(t *testing.T) {
	dir := t.TempDir()
	stdout, _ := capture(t, dir)
	code := Run(Fanout{Cmd: "cmd", Workers: 1}, harness.Options{}, []int{1, 2}, func(int) string { return "" },
		func(o harness.Options, i int, rec obs.Recorder) (string, error) {
			if o.Obs != nil || rec != nil {
				t.Error("telemetry collected without a path")
			}
			return strings.Repeat("x", i), nil
		})
	if code != 0 {
		t.Errorf("exit code %d, want 0", code)
	}
	if got := read(t, stdout); got != "xxx" {
		t.Errorf("stdout %q", got)
	}
}

// TestRunInterrupted: SIGINT mid-run cancels the running item's
// context, skips the unstarted ones without reporting them as failures,
// keeps the finished report and exits 1.
func TestRunInterrupted(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr := capture(t, dir)
	code := Run(Fanout{Cmd: "cmd", Workers: 1}, harness.Options{}, []string{"a", "b"}, func(s string) string { return s },
		func(o harness.Options, s string, _ obs.Recorder) (string, error) {
			if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
			<-o.Ctx.Done()
			return s + " partial\n", nil
		})
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if got := read(t, stdout); got != "a partial\n" {
		t.Errorf("stdout %q", got)
	}
	if got := read(t, stderr); got != "cmd: interrupted; results above are partial\n" {
		t.Errorf("stderr %q", got)
	}
}

// capture points os.Stdout and os.Stderr at files in dir for the rest
// of the test.
func capture(t *testing.T, dir string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr = filepath.Join(dir, "stdout"), filepath.Join(dir, "stderr")
	oldOut, oldErr := os.Stdout, os.Stderr
	for _, p := range []struct {
		f    **os.File
		path string
	}{{&os.Stdout, stdout}, {&os.Stderr, stderr}} {
		f, err := os.Create(p.path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		*p.f = f
	}
	t.Cleanup(func() { os.Stdout, os.Stderr = oldOut, oldErr })
	return stdout, stderr
}

func read(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
