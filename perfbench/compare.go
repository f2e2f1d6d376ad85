package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// specPath is the benchmark declaration, relative to the repository root
// the benchmark runs from. It holds each metric's direction and bound.
const specPath = "BENCHMARK.json"

// compareMain prints, for each workload and end-to-end metric, both sides'
// median and quartiles over their untraced runs, the change in the median,
// and one verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.jsonl CHANGE.jsonl")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-8s %-14s %28s %28s %9s  %s\n", "workload", "metric", "base q1/median/q3", "change q1/median/q3", "delta", "verdict")
	for _, w := range workloadsIn(base, change) {
		for _, m := range spec.EndToEnd {
			a, ab := samples(base, w, m.Name)
			c, cb := samples(change, w, m.Name)
			if len(a) == 0 || len(c) == 0 {
				continue
			}
			v := judge(a, c, ab, cb, m.Better == "lower", m.Bound)
			fmt.Fprintf(stdout, "%-8s %-14s %28s %28s %+8.2f%%  %s\n", w, m.Name, triple(a), triple(c), v.deltaPct, v.verdict)
		}
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// workloadsIn lists the workloads with untraced runs on both sides.
func workloadsIn(a, b []record) []string {
	seen := map[string]int{}
	for _, r := range a {
		if !r.Provenance.Trace {
			seen[r.Provenance.Workload] |= 1
		}
	}
	for _, r := range b {
		if !r.Provenance.Trace {
			seen[r.Provenance.Workload] |= 2
		}
	}
	var ws []string
	for w, s := range seen {
		if s == 3 {
			ws = append(ws, w)
		}
	}
	sort.Strings(ws)
	return ws
}

// samples returns a metric's values over a workload's correct untraced runs
// and, for pairing, each run's seed.
func samples(recs []record, workload, metric string) ([]float64, []int64) {
	var vs []float64
	var seeds []int64
	for _, r := range recs {
		if r.Provenance.Trace || r.Provenance.Workload != workload || !r.Result.Correct {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			vs = append(vs, m.Value)
			seeds = append(seeds, r.Provenance.Seed)
		}
	}
	return vs, seeds
}

func triple(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, m, q3)
}

type verdict struct {
	deltaPct float64
	verdict  string
}

// judge applies the benchmark's comparison rule to one metric. The change
// regressed when its median is worse than the base's by more than bound (a
// share of the base median). When either side's quartile spread, as a share
// of its median, is wider than bound, the comparison is unresolved unless
// every change run beats every base run. A gain is claimed only when the
// change wins at least nine in ten runs paired by seed (ties count for
// neither; without pairs, every change run must beat every base run) and the
// medians differ by more than the base's quartile spread.
func judge(base, change []float64, baseSeeds, changeSeeds []int64, lowerBetter bool, bound float64) verdict {
	bq1, bm, bq3 := quartiles(base)
	cq1, cm, cq3 := quartiles(change)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	v := verdict{}
	if bm != 0 {
		v.deltaPct = 100 * (cm - bm) / abs(bm)
	}
	worse := cm - bm // positive when the change is worse
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				allBetter = false
			}
		}
	}
	spread := max(relSpread(bq1, bm, bq3), relSpread(cq1, cm, cq3))
	switch {
	case spread > bound && !allBetter:
		v.verdict = "unresolved (spread wider than the bound)"
	case bm != 0 && worse/abs(bm) > bound:
		v.verdict = "regressed"
	case worse < 0 && abs(cm-bm) > bq3-bq1 && wins(base, change, baseSeeds, changeSeeds, better, allBetter):
		v.verdict = "improved"
	default:
		v.verdict = "within bound"
	}
	return v
}

func relSpread(q1, m, q3 float64) float64 {
	if m == 0 {
		return 0
	}
	return (q3 - q1) / abs(m)
}

// wins reports whether the change won at least nine tenths of the runs
// paired by seed, or, with no seed in common, whether every change run beat
// every base run.
func wins(base, change []float64, baseSeeds, changeSeeds []int64, better func(x, y float64) bool, allBetter bool) bool {
	bySeed := map[int64]float64{}
	for i, s := range baseSeeds {
		bySeed[s] = base[i]
	}
	pairs, won := 0, 0
	for i, s := range changeSeeds {
		b, ok := bySeed[s]
		if !ok {
			continue
		}
		pairs++
		if better(change[i], b) {
			won++
		}
	}
	if pairs == 0 {
		return allBetter
	}
	return float64(won) >= 0.9*float64(pairs)
}
