// Command perfbench is the repository's benchmark. It measures the
// simulator's host time on three workloads and checks that every simulated
// output is bit-identical to the checked-in reference.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0
//	python3 perfbench/run.py --workload dse --seed 3 --seconds 10 --trace 1 --record runs.jsonl
//	python3 perfbench/run.py compare base.jsonl change.jsonl
//	python3 perfbench/run.py reference > perfbench/reference.json
//
// The last line of standard output is the run's result:
// {"correct", "attempted", "failed", "metrics"}. See README.md for the
// workloads, the metrics and what each per-layer metric should move.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "reference":
			return referenceMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p params
	var trace int
	fs.StringVar(&p.workload, "workload", "", "workload to run: replay, serving or dse")
	fs.Int64Var(&p.seed, "seed", 1, "input seed")
	fs.Float64Var(&p.seconds, "seconds", 10, "seconds to measure for")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the timed one")
	fs.IntVar(&p.calls, "calls", 0, "replayed calls per repetition (0 = the workload's scale; another scale has no reference digest)")
	fs.IntVar(&p.files, "files", 0, "suite files for dse (0 = the workload's scale; another scale has no reference digest)")
	record := fs.String("record", "", "append the run's provenance and result to this JSON-lines file")
	child := fs.String("child", "", "internal: run as a measurement child of this kind")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !validWorkload(p.workload) {
		fmt.Fprintf(stderr, "perfbench: -workload must be replay, serving or dse, got %q\n", p.workload)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	p.trace = trace == 1
	p.workers = maxWorkers()
	p = p.withDefaults()
	if *child != "" {
		if err := runChild(*child, p, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench child: %v\n", err)
			return 1
		}
		return 0
	}
	res, prov, err := measure(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *record != "" {
		if err := appendRecord(*record, prov, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: record: %v\n", err)
			return 1
		}
	}
	if err := writeJSONLine(stdout, map[string]any{"provenance": prov}); err != nil {
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		return 1
	}
	return 0
}

// maxWorkers is the worker count for the sim phase-B pool and the exp
// scheduler: one per schedulable CPU.
func maxWorkers() int { return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0))) }

// measure runs one benchmark invocation.
func measure(p params) (result, provenance, error) {
	ref, err := loadReference()
	if err != nil {
		return result{}, provenance{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	prov := newProvenance(p)
	var values map[string]float64
	var o outcome
	specs := e2eMetrics
	switch {
	case p.trace:
		specs = layerMetrics
		tr := newTracer()
		if p.workload == "dse" {
			values, o, err = traceDSE(p, ref, tr)
		} else {
			values, o, err = traceReplay(p, ref, tr)
		}
		if err == nil {
			o.add(tr.check() == nil)
			tr.writeSummary(os.Stderr)
		}
		prov.Repetitions = 1
		prov.Workers = 1
	case p.workload == "dse":
		values, o, prov.Repetitions, err = measureDSE(ctx, p, ref)
	default:
		values, o, prov.Repetitions, err = measureReplay(ctx, p, ref)
		prov.Workers = timedReplayWorkers
	}
	if err != nil {
		return result{}, prov, err
	}
	if ctx.Err() != nil {
		return result{}, prov, errors.New("run deadline exceeded")
	}
	res, err := buildResult(specs, values, o)
	return res, prov, err
}

// provenance records where and how a result was measured.
type provenance struct {
	Revision    string `json:"vcs_revision"`
	Modified    bool   `json:"vcs_modified"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Workers     int    `json:"workers"`
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       bool   `json:"trace"`
	Repetitions int    `json:"repetitions"`
	Calls       int    `json:"calls,omitempty"`
	Files       int    `json:"files,omitempty"`
}

func newProvenance(p params) provenance {
	pr := provenance{
		Revision:   "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    p.workers,
		Workload:   p.workload,
		Seed:       p.seed,
		Trace:      p.trace,
	}
	if p.workload == "dse" {
		pr.Files = p.files
	} else {
		pr.Calls = p.calls
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				pr.Revision = s.Value
			case "vcs.modified":
				pr.Modified = s.Value == "true"
			}
		}
	}
	return pr
}

// record is one line of a results file: a run's provenance and result.
type record struct {
	Provenance provenance `json:"provenance"`
	Result     result     `json:"result"`
}

func appendRecord(path string, prov provenance, res result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeJSONLine(f, record{Provenance: prov, Result: res}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
