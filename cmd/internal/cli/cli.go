// Package cli holds what the simulation commands share: resolving an
// -app list into applications, and the per-item fan-out lifecycle that
// mab-prefetch, mab-smt and mab-trace record run their items through.
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"microbandit/internal/harness"
	"microbandit/internal/obs"
	"microbandit/internal/par"
	"microbandit/internal/trace"
)

// Apps resolves an -app value: "all" is the whole catalog, anything
// else a comma-separated list of catalog names. With traces set, an
// entry ending in .mbt is a recorded trace file instead (loadTrace).
// The error names the valid values.
func Apps(list string, traces bool) ([]trace.App, error) {
	if list == "all" {
		return trace.Catalog(), nil
	}
	var apps []trace.App
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if traces && strings.HasSuffix(name, ".mbt") {
			app, err := loadTrace(name)
			if err != nil {
				return nil, err
			}
			apps = append(apps, app)
			continue
		}
		app, err := trace.ByName(name)
		if err != nil {
			var names []string
			for _, a := range trace.Catalog() {
				names = append(names, a.Name)
			}
			valid := strings.Join(names, ", ") + `, or "all"`
			if traces {
				valid += ", or a .mbt trace file"
			}
			return nil, fmt.Errorf("%v (valid: %s)", err, valid)
		}
		apps = append(apps, app)
	}
	return apps, nil
}

// loadTrace reads a recorded trace file into an application named by
// the trace header. Its generator loops over the recorded instructions
// until the instruction budget is met (§6.2), whatever the seed. An
// unreadable, malformed or empty file is an error.
func loadTrace(path string) (trace.App, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.App{}, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return trace.App{}, fmt.Errorf("%s: %w", path, err)
	}
	insts, err := r.ReadAll()
	if err != nil {
		return trace.App{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(insts) == 0 {
		return trace.App{}, fmt.Errorf("%s: empty trace", path)
	}
	name := r.TraceName()
	return trace.App{Name: name, New: func(uint64) trace.Generator {
		return trace.NewLoop(name, insts)
	}}, nil
}

// Fanout is one command's fan-out configuration.
type Fanout struct {
	// Cmd names the command on every stderr line.
	Cmd string
	// Workers is the -j worker goroutine count (0 = one per CPU).
	Workers int
	// Telemetry is the -telemetry JSONL path ("" records none) and
	// Every its -telemetry-every cadence.
	Telemetry string
	Every     int
	// Sep is printed between consecutive reports.
	Sep string
}

// Run runs sim once per item on f.Workers goroutines and returns the
// process exit code. Each call gets o with Ctx and Obs set, and rec,
// item i's telemetry slot (nil without telemetry): slots are claimed by
// item index, so the assembled stream is byte-identical at every -j.
//
// SIGINT/SIGTERM cancels Ctx: running items stop at their next chunk or
// epoch boundary and return what they did, unstarted items never run.
// Reports print in input order. A failing or panicking item is reported
// on stderr under its name without taking down its siblings. The
// telemetry files are written last. The exit code is 0 when every item
// finished cleanly and 1 when one failed or the run was interrupted.
func Run[T any](f Fanout, o harness.Options, items []T, name func(T) string,
	sim func(o harness.Options, item T, rec obs.Recorder) (string, error)) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o.Ctx = ctx
	if f.Telemetry != "" {
		o.Obs = obs.NewCollector(f.Every)
	}
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	reports, errs := par.RunCtx(ctx, f.Workers, idx, func(_ context.Context, i int) (string, error) {
		var rec obs.Recorder
		if o.Obs != nil {
			rec = o.Obs.Slot(i, name(items[i]))
		}
		return sim(o, items[i], rec)
	})
	failed := 0
	for i, report := range reports {
		if errs[i] != nil {
			if !errors.Is(errs[i], context.Canceled) {
				failed++
				fmt.Fprintf(os.Stderr, "%s: %s: %v\n", f.Cmd, name(items[i]), errs[i])
			}
			continue
		}
		if i > 0 {
			fmt.Print(f.Sep)
		}
		fmt.Print(report)
	}
	if o.Obs != nil {
		if err := obs.WriteFiles(f.Telemetry, f.Every, o.Obs.Events()); err != nil {
			fmt.Fprintf(os.Stderr, "%s: telemetry: %v\n", f.Cmd, err)
			return 1
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "%s: interrupted; results above are partial\n", f.Cmd)
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d runs failed; results above are partial\n", f.Cmd, failed, len(items))
		return 1
	}
	return 0
}
