// Command benchjson converts `go test -bench` output into a
// machine-readable JSON report, so CI can archive one BENCH_<sha>.json
// per commit and the perf trajectory stays diffable across PRs.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem ./... | benchjson -sha abc1234 -out BENCH_abc1234.json
//	benchjson -in bench.out -sha abc1234 -out BENCH_abc1234.json
//
// Lines that are not benchmark results (build noise, PASS/ok, custom
// log output) are ignored; `pkg:` headers attribute each benchmark to
// its package. Custom metrics reported with b.ReportMetric land in each
// benchmark's "metrics" map, keyed by unit.
//
// With -baseline, benchjson runs in compare mode instead: it diffs a
// fresh report (-against, or one parsed from -in/stdin) against a
// committed baseline report and exits non-zero when any benchmark
// present in the baseline regressed its ns/op by more than -max-regress
// percent — or silently vanished from the series, which is how a
// renamed Makefile pattern or deleted benchmark would otherwise slip
// through. Benchmarks new in the fresh report are listed, never failed:
// they have no baseline yet.
//
//	benchjson -baseline BENCH_baseline.json -against BENCH_abc1234.json -max-regress 25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the custom b.ReportMetric values (req/wave,
	// tmplhit/op, ...) keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the archived artifact.
type Report struct {
	SHA        string      `json:"sha"`
	Generated  string      `json:"generated"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		in         = flag.String("in", "", "bench output file (default stdin)")
		out        = flag.String("out", "", "JSON file to write (default stdout)")
		sha        = flag.String("sha", "", "commit the numbers belong to")
		baseline   = flag.String("baseline", "", "baseline JSON report; enables compare mode")
		against    = flag.String("against", "", "fresh JSON report to diff with -baseline (default: parse -in/stdin as bench output)")
		maxRegress = flag.Float64("max-regress", 25, "compare mode: fail when ns/op regresses more than this percent")
	)
	flag.Parse()

	if *baseline != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			fatal(err)
		}
		var fresh *Report
		if *against != "" {
			fresh, err = loadReport(*against)
		} else {
			fresh, err = parseInput(*in, *sha)
		}
		if err != nil {
			fatal(err)
		}
		if !compare(os.Stdout, base, fresh, *maxRegress) {
			os.Exit(1)
		}
		return
	}

	rep, err := parseInput(*in, *sha)
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// parseInput parses `go test -bench` output from the file (or stdin).
func parseInput(in, sha string) (*Report, error) {
	src := io.Reader(os.Stdin)
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src = f
	}
	return parse(src, sha)
}

// loadReport reads a previously written JSON report.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare diffs fresh against base and reports per-benchmark verdicts
// to w: a regression beyond maxRegress percent ns/op fails, as does a
// baseline benchmark missing from the fresh report (a series that
// silently lost a benchmark must not read as green). Returns true when
// everything passed. Comparisons are keyed by package + name, so the
// same benchmark moving packages reads as dropped + new — intended, the
// baseline should be regenerated then.
func compare(w io.Writer, base, fresh *Report, maxRegress float64) bool {
	freshBy := make(map[string]Benchmark, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		freshBy[b.Pkg+" "+b.Name] = b
	}
	baseKeys := make(map[string]bool, len(base.Benchmarks))
	pass := true
	fmt.Fprintf(w, "benchjson: comparing %s (fresh) against %s (baseline), max ns/op regression %.0f%%\n",
		shaOr(fresh.SHA, "worktree"), shaOr(base.SHA, "unknown"), maxRegress)
	for _, ob := range base.Benchmarks {
		key := ob.Pkg + " " + ob.Name
		baseKeys[key] = true
		nb, ok := freshBy[key]
		if !ok {
			pass = false
			fmt.Fprintf(w, "FAIL %-60s dropped from the series (baseline %.0f ns/op)\n", ob.Name, ob.NsPerOp)
			continue
		}
		if ob.NsPerOp <= 0 {
			fmt.Fprintf(w, "skip %-60s baseline has no ns/op\n", ob.Name)
			continue
		}
		delta := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
		verdict := "ok  "
		if delta > maxRegress {
			verdict = "FAIL"
			pass = false
		}
		fmt.Fprintf(w, "%s %-60s %12.0f -> %12.0f ns/op  %+6.1f%%\n", verdict, ob.Name, ob.NsPerOp, nb.NsPerOp, delta)
	}
	for _, nb := range fresh.Benchmarks {
		if !baseKeys[nb.Pkg+" "+nb.Name] {
			fmt.Fprintf(w, "new  %-60s %12.0f ns/op (no baseline; regenerate with make bench-baseline)\n", nb.Name, nb.NsPerOp)
		}
	}
	if pass {
		fmt.Fprintf(w, "benchjson: PASS (%d benchmarks within budget)\n", len(base.Benchmarks))
	} else {
		fmt.Fprintf(w, "benchjson: FAIL (regression or dropped benchmark; see lines above)\n")
	}
	return pass
}

func shaOr(sha, fallback string) string {
	if sha == "" {
		return fallback
	}
	return sha
}

func parse(r io.Reader, sha string) (*Report, error) {
	rep := &Report{SHA: sha, Generated: time.Now().UTC().Format(time.RFC3339)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "pkg: "); ok {
			pkg = rest
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmark...: some log line"
		}
		b := Benchmark{
			// Strip the -<GOMAXPROCS> suffix so names are stable across
			// differently-sized CI hosts.
			Name:       trimProcs(fields[0]),
			Pkg:        pkg,
			Iterations: iters,
		}
		// The rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[fields[i+1]] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// trimProcs removes a trailing -N GOMAXPROCS marker from a benchmark
// name (sub-benchmark slashes are kept).
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
