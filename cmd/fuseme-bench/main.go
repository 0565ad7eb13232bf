// Command fuseme-bench regenerates the tables and figures of the FuseME
// paper's evaluation (Section 6) on the simulated cluster.
//
// Usage:
//
//	fuseme-bench -exp all
//	fuseme-bench -exp fig12a
//	fuseme-bench -exp fig14 -scale 0.1
//	fuseme-bench -exp cache -out BENCH_cache.json
//	fuseme-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fuseme/internal/experiments"
	"fuseme/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID to run (see -list)")
	scale := flag.Float64("scale", 1, "dimension scale factor in (0,1]")
	nodes := flag.Int("nodes", 0, "override worker node count (default: paper's 8)")
	runtime := flag.String("runtime", "sim", "execution backend; experiments model the paper's cluster, so only sim is valid")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file of the bench run (per-experiment spans; stage/task detail for real executions)")
	flightOut := flag.String("flight-out", "", "write a JSONL flight record of the bench run (one line per executed stage: predicted vs measured)")
	out := flag.String("out", "", "write a report-producing experiment's JSON document to this file (cache -> BENCH_cache.json, kernels -> BENCH_kernels.json, serve -> BENCH_serve.json)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *runtime != "sim" {
		fmt.Fprintf(os.Stderr, "fuseme-bench: -runtime=%s is not supported: the experiments reproduce the paper's "+
			"simulated 8-node cluster (Eq. 2 time model); use cmd/fuseme or the examples with -runtime=tcp for "+
			"real distributed execution\n", *runtime)
		os.Exit(2)
	}

	if *list {
		fmt.Println("experiments:", strings.Join(experiments.IDs(), " "), "all")
		return
	}
	opts := experiments.Options{Scale: *scale, Nodes: *nodes, ReportOut: *out}
	if *traceOut != "" || *flightOut != "" {
		opts.Obs = &obs.Obs{}
		if *traceOut != "" {
			opts.Obs.Trace = obs.NewRecorder()
		}
		if *flightOut != "" {
			fr, ferr := obs.OpenFlightRecorder(*flightOut)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "fuseme-bench:", ferr)
				os.Exit(1)
			}
			opts.Obs.Flight = fr
		}
	}
	tables, err := experiments.Run(*exp, opts)
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	if *traceOut != "" {
		if werr := writeTrace(*traceOut, opts.Obs.Trace); werr != nil {
			fmt.Fprintln(os.Stderr, "fuseme-bench:", werr)
			os.Exit(1)
		}
		fmt.Println("trace:", *traceOut)
	}
	if *flightOut != "" {
		if werr := opts.Obs.Flight.Close(); werr != nil {
			fmt.Fprintln(os.Stderr, "fuseme-bench:", werr)
			os.Exit(1)
		}
		fmt.Println("flight:", *flightOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuseme-bench:", err)
		os.Exit(1)
	}
}

func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
