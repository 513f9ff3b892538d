package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestRenderFailuresNewlineSafe: a panic value with embedded newlines
// (and commas) must stay inside its own appendix entry — one failure
// per line, always.
func TestRenderFailuresNewlineSafe(t *testing.T) {
	fails := []JobFailure{
		{Job: 0, Err: errors.New("plain failure")},
		{Job: 1, Err: fmt.Errorf("panic: bad state\ngoroutine 7 [running]:\nmain.go:12")},
		{Job: 2, Err: errors.New("spec noise:0.5:7, intensity out of range")},
	}
	out := RenderFailures(fails)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	// Banner + one line per failure; the multi-line error is quoted into
	// a single line rather than spilling.
	if len(lines) != 1+len(fails) {
		t.Fatalf("appendix has %d lines, want %d:\n%s", len(lines), 1+len(fails), out)
	}
	if !strings.Contains(out, `"panic: bad state\ngoroutine 7 [running]:\nmain.go:12"`) {
		t.Errorf("multi-line error not quoted:\n%s", out)
	}
}
