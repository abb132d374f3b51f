// Command e2e is the repository benchmark: four prediction-query
// workloads driven through the engine the way cmd/ravensql drives it —
// generated CSV files and a model file, raven.NewSession,
// RegisterTableCSV/RegisterModelFile, Session.QueryContext, data.WriteCSV
// into a byte-counting sink — with end-to-end metrics measured with
// tracing off and per-layer metrics taken from outside, by timing calls
// into each internal package's exported functions.
//
//	go run ./bench/e2e                        # every workload, untraced and traced
//	go run ./bench/e2e -workload rank_join    # one untraced run
//	go run ./bench/e2e -workload rank_join -trace 1 -out r.json   # + r.json.trace.json
//	go run ./bench/e2e -compare a.json b.json # repeatability check
//
// Each run prints one `workload metric value unit` line per metric and, as
// its last line, the JSON object BENCHMARK.json's driver reads. README.md
// in this directory explains the workloads, the metric → layer → workload
// table and how to read a trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// runSeconds is the default measured time of one run; BENCHMARK.json's
// run_seconds says the same.
const runSeconds = 20

// buildDir is where building and running leave their files.
const buildDir = ".bench_build"

// setUpReps is how often an untraced run sets up, to report a median.
const setUpReps = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	name := fs.String("workload", "", "workload to run (default: all, one process each)")
	out := fs.String("out", "", "write the JSON report here (traced runs add <out>.trace.json)")
	seconds := fs.Int("seconds", runSeconds, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	cmp := fs.Bool("compare", false, "compare two reports given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "e2e: %v\n", err)
		return 1
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two report files"))
		}
		a, err := readReport(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readReport(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !compare(stdout, a, b) {
			return 1
		}
		return 0
	}

	// Inputs, spill files and per-workload reports live under the build
	// directory of the checkout the benchmark runs from (it is in
	// .gitignore), and go with the run.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(buildDir, "e2e-run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	rep := report{Env: currentEnv(*seed, *seconds)}
	if *name == "" {
		if rep.Results, err = runAll(*seed, *seconds, dir, *out, stdout, stderr); err != nil {
			return fail(err)
		}
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		window := time.Duration(*seconds) * time.Second
		res, spans, err := runWorkload(context.Background(), w, *seed, window, *traced == 1, dir)
		if err != nil {
			return fail(err)
		}
		rep.Results = []result{*res}
		if *out != "" && spans != nil {
			if err := writeJSON(*out+".trace.json", spans); err != nil {
				return fail(err)
			}
		}
		res.print(stdout)
		fmt.Fprintln(stdout, res.contractLine())
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return fail(err)
		}
	}
	for _, r := range rep.Results {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runAll runs every workload untraced and traced, each in a process of
// its own so that peak RSS, the process-wide scheduler pool and GC state
// are the workload's alone. With out set, each traced run's spans are kept
// as <out>.<workload>.trace.json.
func runAll(seed int64, seconds int, dir, out string, stdout, stderr io.Writer) ([]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var all []result
	for _, w := range workloads() {
		for _, traced := range []int{0, 1} {
			part := filepath.Join(dir, fmt.Sprintf("%s.%d.json", w.name, traced))
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-out", part)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			runErr := cmd.Run()
			r, err := readReport(part)
			if err != nil {
				if runErr != nil {
					err = fmt.Errorf("%s (trace %d): %w", w.name, traced, runErr)
				}
				return nil, err
			}
			all = append(all, r.Results...)
			if out != "" && traced == 1 {
				if err := os.Rename(part+".trace.json", out+"."+w.name+".trace.json"); err != nil {
					return nil, err
				}
			}
		}
	}
	return all, nil
}
