// Command uexp regenerates the paper's experiments: every panel of Figures
// 4–6 and Tables 8–10 has an experiment id (aliases resolve paired memory
// panels to the time panel they share runs with).
//
// Examples:
//
//	uexp -list
//	uexp -run fig4a
//	uexp -run table8 -scale 2
//	uexp -all -scale 0.5 > experiments.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"umine/internal/exp"
	"umine/internal/obsq"
	"umine/internal/profiling"
	"umine/internal/telemetry"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment ids and titles")
		run     = flag.String("run", "", "run one experiment by id")
		all     = flag.Bool("all", false, "run every experiment in paper order")
		scale   = flag.Float64("scale", 1, "multiply each experiment's base dataset scale (laptop default 1)")
		seed    = flag.Int64("seed", 42, "generator seed")
		budget  = flag.Duration("budget", 20*time.Second, "per-point soft time budget (paper's 1-hour cutoff analogue)")
		verbose = flag.Bool("v", false, "verbose per-point notes")
		format  = flag.String("format", "text", "report format: text, csv")
		workers = flag.Int("workers", 0, "max goroutines per measured miner (0/1 = serial, the paper's platform; -1 = all CPUs); results are identical at every setting")
		parts   = flag.Int("partitions", 0, "SON-style partitioned mining over this many database partitions per measured miner (0/1 = single-shot); results are bit-identical at every setting")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write an allocation profile after the sweep to this file (go tool pprof)")
		trace   = flag.Bool("trace", false, "print each experiment's span tree (one span per measured-mine checkpoint) to stderr")
	)
	flag.Parse()

	// Profiling brackets the whole sweep; flushed explicitly on every exit
	// path below because os.Exit skips defers.
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uexp:", err)
		os.Exit(1)
	}
	exitProf = stopProf

	// SIGINT/SIGTERM cancel the in-flight measurement at its next
	// cooperative checkpoint; the sweep records the cancellation in its
	// notes and the tool exits nonzero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := exp.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.PointBudget = *budget
	cfg.Verbose = *verbose
	cfg.Workers = *workers
	cfg.Partitions = *parts
	cfg.Context = ctx

	switch {
	case *list:
		for _, e := range exp.All() {
			id := e.ID
			for _, a := range e.Aliases {
				id += "," + a
			}
			fmt.Printf("%-14s %s\n", id, e.Title)
		}
	case *run != "":
		e, ok := exp.Lookup(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "uexp: unknown experiment %q; -list shows ids\n", *run)
			exitProf()
			os.Exit(1)
		}
		start := time.Now()
		emit(runExperiment(e, cfg, *trace), *format)
		fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
		exitIfCanceled(ctx)
	case *all:
		for _, e := range exp.All() {
			start := time.Now()
			emit(runExperiment(e, cfg, *trace), *format)
			fmt.Fprintf(os.Stderr, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
			exitIfCanceled(ctx)
		}
	default:
		flag.Usage()
		exitProf()
		os.Exit(2)
	}
	exitProf()
}

// runExperiment runs one experiment, with -trace wrapping the run in a
// span tree: every measured miner's checkpoint stream (Config.Progress)
// lands as one span per checkpoint under the experiment's root, rendered
// to stderr when the run finishes.
func runExperiment(e exp.Experiment, cfg exp.Config, trace bool) *exp.Report {
	if !trace {
		return e.Run(cfg)
	}
	tr := telemetry.NewTrace("uexp " + e.ID)
	cfg.Progress = obsq.NewCollector(tr.Root()).Progress()
	r := e.Run(cfg)
	td := tr.Finish()
	fmt.Fprintf(os.Stderr, "trace %s:\n", td.TraceID)
	td.Root.Render(os.Stderr)
	return r
}

// exitProf flushes any active profiles before the tool exits; installed by
// main once the -cpuprofile/-memprofile flags are parsed.
var exitProf = func() {}

// exitIfCanceled stops the sweep after a signal: the canceled point is
// already recorded in the just-emitted report's notes.
func exitIfCanceled(ctx context.Context) {
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "uexp: canceled")
		exitProf()
		os.Exit(1)
	}
}

// emit renders one report in the selected format.
func emit(r *exp.Report, format string) {
	switch format {
	case "csv":
		fmt.Printf("# %s — %s\n", r.ID, r.Title)
		if err := r.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "uexp:", err)
			exitProf()
			os.Exit(1)
		}
	default:
		r.Fprint(os.Stdout)
	}
}
