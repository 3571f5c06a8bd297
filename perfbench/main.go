// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the system exactly as shipped — the
// library through reopt.Open(cat) with no options, the daemon through
// server.New(cat, server.DefaultConfig()) on a loopback listener driven
// by reoptclient with retries off — checks every output, and prints the
// workload's metrics, ending with one JSON line:
//
//	perfbench --workload ott-session --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it additionally runs a traced pass, whose spans around
// the benchmark's own calls into each layer give the per-layer metrics,
// and writes the spans under --out. README.md documents the workloads
// and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is what every workload receives.
type runConfig struct {
	seed int64
	dur  time.Duration
	// minSamples is how many queries a closed-loop phase completes
	// before it may stop, so p99 has minBeyond samples above it.
	minSamples int
	log        io.Writer
}

// result is the JSON line the run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input of the run is generated from")
	seconds := fs.Float64("seconds", 10, "how long the timed traffic runs")
	trace := fs.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory traced runs write their spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:       *seed,
		dur:        time.Duration(*seconds * float64(time.Second)),
		minSamples: minLatencySamples,
		log:        stderr,
	}
	fmt.Fprintf(stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	rep, err := runWorkload(ctx, w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.print(stderr)
	// A query that failed — an error, a refusal, a non-200 — fails the
	// run as a wrong answer does: the workloads are chosen so that none
	// fails.
	res := result{Correct: rep.wrong == 0 && rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed + rep.wrong}
	if *trace == 1 {
		res.Metrics = rep.layers
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: wrote %d spans to %s\n", len(rep.spans), path)
	} else {
		res.Metrics = rep.e2e
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d failed queries, %d wrong outputs\n", rep.failed, rep.wrong)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
