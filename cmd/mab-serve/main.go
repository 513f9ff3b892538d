// Command mab-serve runs the bandit decision server and its load
// generator.
//
// Usage:
//
//	mab-serve serve [-addr :8080] [-shards 64]
//	                [-checkpoint ckpt.json] [-checkpoint-every 30s]
//	                [-telemetry out.jsonl] [-telemetry-every 100]
//	mab-serve loadgen [-workers 8] [-duration 2s] [-arms 8] [-algo ducb]
//	                  [-batch N] [-warmup 200ms] [-out result.json]
//	mab-serve -version
//
// serve starts the HTTP API. With -checkpoint it restores existing
// sessions from the file on start, persists all sessions on the
// -checkpoint-every interval, and — on SIGINT/SIGTERM — drains in-flight
// requests and writes a final checkpoint before exiting, so a restarted
// server resumes every session's exact decision sequence.
//
// loadgen measures an in-process server (no sockets): closed-loop
// workers each drive a private session flat out — or, with -batch N,
// N sessions each through one /v1/batch request per round — and the
// run's throughput and p50/p99/p999 request latencies print as JSON
// (and land in -out when set). A warmup window (default a tenth of the
// duration) runs first and is excluded from the measurement.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"microbandit/internal/core"
	"microbandit/internal/obs"
	"microbandit/internal/serve"
	"microbandit/internal/serve/loadgen"
	"microbandit/internal/version"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usageErr(errors.New("expected a subcommand: serve, loadgen, or -version"))
	}
	switch args[0] {
	case "-version", "--version", "version":
		fmt.Println("mab-serve", version.String())
	case "serve":
		runServe(args[1:])
	case "loadgen":
		runLoadgen(args[1:])
	case "-h", "--help", "help":
		usage(os.Stdout)
	default:
		usageErr(fmt.Errorf("unknown subcommand %q", args[0]))
	}
}

// runServe is the server subcommand: restore, listen, checkpoint on a
// timer, drain and checkpoint on SIGINT/SIGTERM.
func runServe(args []string) {
	fs := flag.NewFlagSet("mab-serve serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", serve.DefaultShards, "session store shards (rounded up to a power of two)")
	ckptPath := fs.String("checkpoint", "", "checkpoint file: restored on start, written on the interval and on shutdown")
	ckptEvery := fs.Duration("checkpoint-every", 30*time.Second, "checkpoint interval (0 disables periodic checkpoints)")
	telemetry := fs.String("telemetry", "", "write a JSONL telemetry event stream to this path on shutdown")
	telemetryEvery := fs.Int("telemetry-every", 100, "telemetry snapshot cadence in bandit steps")
	fs.Parse(args)
	if *shards <= 0 {
		usageErr(fmt.Errorf("-shards must be positive, got %d", *shards))
	}
	if *telemetryEvery <= 0 {
		usageErr(fmt.Errorf("-telemetry-every must be positive, got %d", *telemetryEvery))
	}

	store := serve.NewStore(*shards)
	if *ckptPath != "" {
		restored, err := serve.LoadCheckpoint(*ckptPath, *shards)
		switch {
		case err == nil:
			store = restored
			fmt.Fprintf(os.Stderr, "mab-serve: restored %d sessions from %s\n", store.Len(), *ckptPath)
		case errors.Is(err, os.ErrNotExist):
			fmt.Fprintf(os.Stderr, "mab-serve: no checkpoint at %s; starting empty\n", *ckptPath)
		default:
			// A corrupt checkpoint is fatal: silently starting empty would
			// discard every session on the next checkpoint write.
			fmt.Fprintf(os.Stderr, "mab-serve: %v\n", err)
			os.Exit(1)
		}
	}

	var collector *obs.Collector
	cfg := serve.Config{
		Store:          store,
		ObsEvery:       *telemetryEvery,
		Version:        version.String(),
		CheckpointPath: *ckptPath,
	}
	if *telemetry != "" {
		collector = obs.NewCollector(*telemetryEvery)
		cfg.Obs = collector.Slot(0, "serve")
	}
	srv := serve.New(cfg)

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic checkpoints, stopping with the signal context.
	tickerDone := make(chan struct{})
	if *ckptPath != "" && *ckptEvery > 0 {
		go func() {
			defer close(tickerDone)
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := store.WriteCheckpoint(*ckptPath); err != nil {
						fmt.Fprintf(os.Stderr, "mab-serve: checkpoint: %v\n", err)
					}
				}
			}
		}()
	} else {
		close(tickerDone)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mab-serve: %s listening on %s\n", version.String(), *addr)

	exit := 0
	select {
	case err := <-serveErr:
		// The listener failed outright (bad address, port in use).
		fmt.Fprintf(os.Stderr, "mab-serve: %v\n", err)
		exit = 1
	case <-ctx.Done():
		// Drain in-flight requests, bounded so a wedged connection cannot
		// hold the shutdown hostage past the final checkpoint.
		fmt.Fprintln(os.Stderr, "mab-serve: signal received; draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := httpSrv.Shutdown(shutCtx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mab-serve: drain: %v\n", err)
			exit = 1
		}
	}
	stop()
	<-tickerDone

	// Final state persists after the last request finished.
	if *ckptPath != "" {
		if err := store.WriteCheckpoint(*ckptPath); err != nil {
			fmt.Fprintf(os.Stderr, "mab-serve: final checkpoint: %v\n", err)
			exit = 1
		} else {
			fmt.Fprintf(os.Stderr, "mab-serve: checkpointed %d sessions to %s\n", store.Len(), *ckptPath)
		}
	}
	if collector != nil {
		if err := obs.WriteFiles(*telemetry, *telemetryEvery, collector.Events()); err != nil {
			fmt.Fprintf(os.Stderr, "mab-serve: telemetry: %v\n", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// runLoadgen is the load generator subcommand, measuring an in-process
// server instance.
func runLoadgen(args []string) {
	fs := flag.NewFlagSet("mab-serve loadgen", flag.ExitOnError)
	workers := fs.Int("workers", 8, "closed-loop workers (one session each)")
	duration := fs.Duration("duration", 2*time.Second, "measured run length")
	batch := fs.Int("batch", 0, "sessions per worker driven through one /v1/batch request per round (0 = scalar step/reward)")
	warmup := fs.Duration("warmup", 0, "unmeasured warmup before the clock starts (0 = duration/10, negative disables)")
	arms := fs.Int("arms", 8, "arms per session")
	algo := fs.String("algo", "ducb", "bandit algorithm: "+strings.Join(core.AlgoNames(), ", "))
	seed := fs.Uint64("seed", 1, "base seed (diversified per worker)")
	shards := fs.Int("shards", serve.DefaultShards, "session store shards")
	out := fs.String("out", "", "also write the result JSON to this file")
	fs.Parse(args)
	if *workers <= 0 {
		usageErr(fmt.Errorf("-workers must be positive, got %d", *workers))
	}
	if *duration <= 0 {
		usageErr(fmt.Errorf("-duration must be positive, got %v", *duration))
	}
	if *arms < 1 {
		usageErr(fmt.Errorf("-arms must be positive, got %d", *arms))
	}
	if max := serve.MaxBatchOps / 2; *batch < 0 || *batch > max {
		usageErr(fmt.Errorf("-batch must be in [0, %d], got %d", max, *batch))
	}

	// An interrupt ends the run early; the partial measurement still
	// prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := loadgen.Run(ctx, loadgen.Options{
		Handler:  serve.New(serve.Config{Store: serve.NewStore(*shards), Version: version.String()}),
		Workers:  *workers,
		Duration: *duration,
		Batch:    *batch,
		Warmup:   *warmup,
		Spec:     serve.Spec{Algo: *algo, Arms: *arms, Seed: *seed},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mab-serve: loadgen: %v\n", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mab-serve: loadgen: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	os.Stdout.Write(data)
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mab-serve: loadgen: %v\n", err)
			os.Exit(1)
		}
	}
}

func usage(w *os.File) {
	fmt.Fprintln(w, `mab-serve — bandit decision server

  mab-serve serve [-addr :8080] [-shards N] [-checkpoint ckpt.json]
                  [-checkpoint-every 30s] [-telemetry out.jsonl]
  mab-serve loadgen [-workers 8] [-duration 2s] [-arms 8] [-algo ducb]
                    [-batch N] [-warmup 200ms] [-out result.json]
  mab-serve -version

Run "mab-serve <subcommand> -h" for flag details.`)
}

// usageErr reports a bad invocation and exits 2.
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "mab-serve:", err)
	usage(os.Stderr)
	os.Exit(2)
}
