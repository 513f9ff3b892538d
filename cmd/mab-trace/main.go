// Command mab-trace records synthetic applications into the binary trace
// format of the paper's trace-driven methodology (§6.1) and summarizes
// trace files. mab-prefetch runs a recorded file as an -app entry,
// looping it until the instruction budget is met (§6.2).
//
// Usage:
//
//	mab-trace record -app lbm17 -insts 2000000 -out lbm17.mbt
//	mab-trace record -app lbm17,mcf06,ligra-bfs -j 4
//	mab-trace info -in lbm17.mbt
//	mab-prefetch -app lbm17.mbt -pf bandit
//
// With a comma-separated -app list (or "all"), record writes one
// <app>.mbt per application, fanning the recordings out across -j worker
// goroutines. An interrupt removes the unfinished recordings' partial
// files and exits 1; a failed recording is reported on stderr and also
// exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"microbandit/cmd/internal/cli"
	"microbandit/internal/harness"
	"microbandit/internal/obs"
	"microbandit/internal/trace"
	"microbandit/internal/version"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch {
	case os.Args[1] == "-version", os.Args[1] == "--version", os.Args[1] == "version":
		fmt.Println("mab-trace", version.String())
	case os.Args[1] == "record":
		record(os.Args[2:])
	case os.Args[1] == "info":
		info(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mab-trace {record|info|version} [flags]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	appNames := fs.String("app", "lbm17", "application(s) to record: a name, a comma-separated list, or \"all\"")
	insts := fs.Int64("insts", 2_000_000, "instructions to record")
	out := fs.String("out", "", "output trace file (single app only; default <app>.mbt)")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("j", 0, "worker goroutines for multi-app recording (0 = one per CPU)")
	_ = fs.Parse(args)

	if *insts <= 0 {
		usageErr(fs, fmt.Errorf("-insts must be positive, got %d", *insts))
	}
	if *workers < 0 {
		usageErr(fs, fmt.Errorf("-j must be >= 0, got %d", *workers))
	}
	apps, err := cli.Apps(*appNames, false)
	if err != nil {
		usageErr(fs, err)
	}
	if *out != "" && len(apps) > 1 {
		usageErr(fs, fmt.Errorf("-out only applies to a single app; got %d", len(apps)))
	}

	// Each recording owns its generator and output file. An interrupt
	// abandons in-flight recordings and removes their partial files — a
	// truncated trace would silently shorten every later run of it.
	os.Exit(cli.Run(cli.Fanout{Cmd: "mab-trace", Workers: *workers}, harness.Options{}, apps,
		func(app trace.App) string { return app.Name },
		func(o harness.Options, app trace.App, _ obs.Recorder) (string, error) {
			path := *out
			if path == "" {
				path = app.Name + ".mbt"
			}
			return recordOne(o.Ctx, app, path, *insts, *seed)
		}))
}

// recordOne writes one application's trace file and returns the report
// line. On cancellation the partial file is removed and ctx's error
// returned.
func recordOne(ctx context.Context, app trace.App, path string, insts int64, seed uint64) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w, err := trace.NewWriter(f, app.Name)
	if err != nil {
		return "", err
	}
	// Generation goes through the chunked source — slab-sized batches,
	// bit-identical to the scalar stream — with a short final chunk for
	// budgets that are not a multiple of ChunkLen. The file format is
	// unchanged: chunking is purely a producer-side batching.
	src := trace.SourceOf(app.New(seed))
	var chunk trace.Chunk
	var inst trace.Inst
	for done := int64(0); done < insts; {
		if ctx.Err() != nil {
			f.Close()
			os.Remove(path)
			return "", ctx.Err()
		}
		n := int64(trace.ChunkLen)
		if rem := insts - done; rem < n {
			n = rem
		}
		chunk.Reset(int(n))
		src.NextChunk(&chunk)
		for i := 0; i < chunk.Len(); i++ {
			chunk.Get(i, &inst)
			if err := w.Write(&inst); err != nil {
				return "", err
			}
		}
		done += n
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	st, err := f.Stat()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("recorded %d instructions of %s to %s (%d bytes, %.2f B/inst)\n",
		w.Count(), app.Name, path, st.Size(), float64(st.Size())/float64(w.Count())), nil
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "input trace file")
	_ = fs.Parse(args)
	if *in == "" {
		usageErr(fs, fmt.Errorf("info needs -in"))
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	var counts [5]int64
	var total int64
	var inst trace.Inst
	for {
		// A bare io.EOF ends the trace between records; any other error,
		// a record cut short included, is a damaged file.
		err := r.Read(&inst)
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *in, err))
		}
		counts[inst.Kind]++
		total++
	}
	fmt.Printf("trace %s: %d instructions\n", r.TraceName(), total)
	for k, n := range counts {
		if total > 0 {
			fmt.Printf("  %-7s %10d (%.1f%%)\n", trace.Kind(k), n, 100*float64(n)/float64(total))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mab-trace:", err)
	os.Exit(1)
}

// usageErr reports a bad flag value and exits 2 with the subcommand's
// usage.
func usageErr(fs *flag.FlagSet, err error) {
	fmt.Fprintln(os.Stderr, "mab-trace:", err)
	fs.Usage()
	os.Exit(2)
}
