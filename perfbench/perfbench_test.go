package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"cdpu/internal/exp"
	"cdpu/internal/sim"
)

// TestMain lets spawn run the test binary itself as a measurement child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tiny is a replay-workload invocation small enough for a unit test.
func tiny(workload string, seed int64) params {
	return params{workload: workload, seed: seed, seconds: 0.01, calls: 64, files: 2, workers: 2}.withDefaults()
}

func TestMetricsMatchDeclaration(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, specs []metricSpec, declared []struct{ Name, Unit string }) {
		if len(specs) != len(declared) {
			t.Errorf("%s: %d metrics emitted, %d declared", kind, len(specs), len(declared))
		}
		for _, d := range declared {
			found := false
			for _, s := range specs {
				if s.name == d.Name {
					found = true
					if s.unit != d.Unit {
						t.Errorf("%s %s: unit %q emitted, %q declared", kind, d.Name, s.unit, d.Unit)
					}
				}
			}
			if !found {
				t.Errorf("%s %s declared but never emitted", kind, d.Name)
			}
		}
	}
	check("end_to_end", e2eMetrics, decl.EndToEnd)
	check("per_layer", layerMetrics, decl.PerLayer)
}

// assertEmitted checks that a result carries exactly the given metrics, each
// with its unit.
func assertEmitted(t *testing.T, res result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		v, ok := res.Metrics[s.name]
		if !ok {
			t.Errorf("metric %s missing", s.name)
			continue
		}
		if v.Unit != s.unit {
			t.Errorf("metric %s: unit %q, want %q", s.name, v.Unit, s.unit)
		}
	}
}

func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a cold dse child")
	}
	for _, w := range []string{"replay", "serving"} {
		for _, traced := range []bool{false, true} {
			p := tiny(w, 3)
			p.trace = traced
			res, prov, err := measure(p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			specs := e2eMetrics
			if traced {
				specs = layerMetrics
			}
			assertEmitted(t, res, specs)
			if prov.Seed != 3 || prov.Workload != w || prov.GoVersion == "" || prov.Repetitions == 0 {
				t.Errorf("%s trace=%v: incomplete provenance %+v", w, traced, prov)
			}
			if !traced {
				for _, name := range []string{"ns_per_call", "wall_s", "setup_s", "peak_rss_mb", "paper_err_pct"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

func TestBuildResultRejectsMissingAndExtraMetrics(t *testing.T) {
	vals := map[string]float64{}
	for _, s := range e2eMetrics {
		vals[s.name] = 1
	}
	if _, err := buildResult(e2eMetrics, vals, outcome{attempted: 1}); err != nil {
		t.Fatalf("complete metrics rejected: %v", err)
	}
	vals["extra"] = 1
	if _, err := buildResult(e2eMetrics, vals, outcome{attempted: 1}); err == nil {
		t.Error("undeclared metric accepted")
	}
	delete(vals, "extra")
	delete(vals, "setup_s")
	if _, err := buildResult(e2eMetrics, vals, outcome{attempted: 1}); err == nil {
		t.Error("missing metric accepted")
	}
}

func TestPerturbedSeedChangesDigest(t *testing.T) {
	for _, w := range []string{"replay", "serving"} {
		digestAt := func(seed int64) string {
			p := tiny(w, seed)
			r, err := sim.Run(p.simConfig(p.workers))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			d, err := reportDigest(r)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		ref, again, perturbed := digestAt(1), digestAt(1), digestAt(2)
		if ref != again {
			t.Errorf("%s: digest not repeatable: %s vs %s", w, ref, again)
		}
		if ref == perturbed {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", w, ref)
		}
		g := gate{want: ref}
		if !g.ok(again) || g.ok(perturbed) {
			t.Errorf("%s: the reference gate does not separate the two seeds", w)
		}
		free := gate{}
		if !free.ok(perturbed) || free.ok(ref) {
			t.Errorf("%s: the agreement gate does not catch a changed output", w)
		}
	}
}

func TestReferenceAppliesOnlyAtItsSeedAndScale(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	at := params{workload: "replay", seed: ref.Seed}.withDefaults()
	if ref.want(at, "replay") == "" {
		t.Error("no reference digest at the reference seed and scale")
	}
	off := at
	off.seed++
	if ref.want(off, "replay") != "" {
		t.Error("reference digest applied at another seed")
	}
	small := at
	small.calls = 64
	if ref.want(small, "replay") != "" {
		t.Error("reference digest applied at another scale")
	}
	for _, id := range append([]string{"replay", "serving"}, dseFigures...) {
		if ref.Digests[id] == "" {
			t.Errorf("reference.json has no digest for %s", id)
		}
	}
}

func TestSpansNestAndSelfTimesNonNegative(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"replay", "serving"} {
		tr := newTracer()
		if _, _, err := traceReplay(tiny(w, 5), ref, tr); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if err := tr.check(); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		for name, l := range tr.layers() {
			if l.Self < 0 || l.Self > l.Total {
				t.Errorf("%s: span %s self %d outside [0, total %d]", w, name, l.Self, l.Total)
			}
		}
		// Each workload re-drives only the phase-C stepper sim uses for it.
		used, unused := "core.step", "cluster.step"
		if w == "serving" {
			used, unused = unused, used
		}
		for _, name := range []string{"fleet.sample", "corpus.gen", "comp.encode", "core.exec", used, "lz77.parse"} {
			if tr.layers()[name].Count == 0 {
				t.Errorf("%s: no %s span", w, name)
			}
		}
		if tr.layers()[unused].Count != 0 {
			t.Errorf("%s: %s re-driven, but sim never calls it here", w, unused)
		}
	}

	bad := newTracer()
	outer := bad.begin("outer", -1)
	bad.end(outer)
	inner := bad.begin("inner", outer)
	bad.end(inner)
	if bad.check() == nil {
		t.Error("a child span outside its parent passed the check")
	}
}

func TestDSERepetitionStartsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the hcbench chunk pools")
	}
	p := tiny("dse", 1)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	run, err := spawn(ctx, "cold", p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var c coldChildOut
	if err := json.Unmarshal(run.last, &c); err != nil {
		t.Fatal(err)
	}
	if c.Err != "" {
		t.Fatal(c.Err)
	}
	if c.Misses <= 0 {
		t.Errorf("cold repetition saw %d config-run misses, want > 0", c.Misses)
	}
	if c.PaperErr <= 0 {
		t.Errorf("paper error %v, want > 0", c.PaperErr)
	}
	if run.setup <= 0 || run.maxRSSK <= 0 {
		t.Errorf("setup %v, peak RSS %d KB", run.setup, run.maxRSSK)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, m, q3 := quartiles(xs)
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, m, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || m != 2 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v %v %v, want 1 2 4", q1, m, q3)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	cases := []struct {
		name   string
		change []float64
		want   string
	}{
		{"same", shift(0), "within bound"},
		{"slower within bound", shift(5), "within bound"},
		{"slower past bound", shift(20), "regressed"},
		{"faster", shift(-10), "improved"},
		{"noisy", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, "unresolved (spread wider than the bound)"},
	}
	for _, c := range cases {
		if got := judge(base, c.change, seeds, seeds, true, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestPaperErrParsesSpeedupRows(t *testing.T) {
	tbl := &exp.Table{Rows: [][]string{
		{"a", "11.00x", "10.0x"},
		{"b", "1.00x", "~2.0x"},
		{"c", "4.00x", "4.0x"},
		{"d", "4.00x", "4.0x"},
		{"e", "4.00x", "4.0x"},
		{"f", "4.00x", "4.0x"},
		{"g", "4.00x", "4.0x"},
		{"speedup span across DSE", "14.0x", "46x"},
		{"area", "2.4%", "2.4%"},
	}}
	got, err := paperErrPct(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 * (0.1 + 0.5) / 7; abs(got-want) > 1e-9 {
		t.Errorf("paper error %v, want %v", got, want)
	}
	tbl.Rows = tbl.Rows[1:]
	if _, err := paperErrPct(tbl); err == nil {
		t.Error("a table with six speedup rows was accepted")
	}
}

func TestCrossCheckCatchesStaleRedrive(t *testing.T) {
	cfg := tiny("replay", 5).simConfig(1)
	r, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var acc layerAcc
	calls, _, err := tracePhasesAB(tr, cfg, &acc)
	if err != nil {
		t.Fatal(err)
	}
	latencies, err := stepCalls(tr, -1, cfg, calls, &acc)
	if err != nil {
		t.Fatal(err)
	}
	if err := crossCheck(cfg, r, calls, latencies); err != nil {
		t.Fatalf("faithful re-drive: %v", err)
	}
	slow := append([]float64(nil), latencies...)
	slow[0]++
	if crossCheck(cfg, r, calls, slow) == nil {
		t.Error("a re-driven latency that differs from sim.Run passed the check")
	}
	if crossCheck(cfg, r, calls[1:], latencies) == nil {
		t.Error("a re-drive missing a call passed the check")
	}
}
