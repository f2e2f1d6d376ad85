package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cdpu/internal/exp"
	"cdpu/internal/sim"
)

// The untraced run measures in fresh child processes of this binary, so that
// every set-up sample pays what a user's first run pays (package init, device
// construction, codec tables) and every dse repetition starts with empty
// suite and config-run memos.
const (
	// replayChildren is how many child processes a replay-workload run
	// splits its time over; each contributes one set-up sample. A serial
	// replay takes 3.5-5 s, so a child's share of an 18 s run holds the same
	// number of them (2 on replay, 3 on serving) whether the host runs fast
	// or slow, and the run's length does not jump by a repetition.
	replayChildren = 2
	// minColdReps is the fewest dse repetitions a run takes, however long
	// each one is.
	minColdReps = 3
	// setupOnlyChildren is how many more dse set-up samples a run takes from
	// children that stop at the ready line: a dse set-up is only process
	// start-up, a few milliseconds, so a median of three would be noisy.
	setupOnlyChildren = 24
	// readyLine is what a child prints when its set-up is done and its first
	// timed operation starts.
	readyLine = "READY"
	// runDeadline bounds a whole run, children included.
	runDeadline = 170 * time.Second
)

// replayChildOut is what a replay-workload child reports.
type replayChildOut struct {
	WarmDigest string     `json:"warm_digest"`
	WarmErr    string     `json:"warm_err,omitempty"`
	Reps       []timedRep `json:"reps"`
}

type timedRep struct {
	Ns     int64  `json:"ns"`
	Digest string `json:"digest"`
	Err    string `json:"err,omitempty"`
}

// coldChildOut is what a dse child reports for one cold regeneration.
type coldChildOut struct {
	WallNs   int64             `json:"wall_ns"`
	Digests  map[string]string `json:"digests"`
	PaperErr float64           `json:"paper_err_pct"`
	Hits     int64             `json:"run_cache_hits"`
	Misses   int64             `json:"run_cache_misses"`
	Err      string            `json:"err,omitempty"`
}

// childArgs are the flags that hand p to a child of the given kind.
func childArgs(kind string, p params, budget float64) []string {
	return []string{
		"-child", kind,
		"-workload", p.workload,
		"-seed", strconv.FormatInt(p.seed, 10),
		"-calls", strconv.Itoa(p.calls),
		"-files", strconv.Itoa(p.files),
		"-seconds", strconv.FormatFloat(budget, 'g', -1, 64),
	}
}

// childRun is one finished child: when it said it was ready, its last output
// line, and its peak resident memory.
type childRun struct {
	setup   time.Duration
	last    []byte
	maxRSSK int64
}

// spawn runs this binary as a child of the given kind and waits for it.
func spawn(ctx context.Context, kind string, p params, budget float64) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, self, childArgs(kind, p, budget)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, fmt.Errorf("start %s child: %w", kind, err)
	}
	var run childRun
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if string(line) == readyLine && run.setup == 0 {
			run.setup = time.Since(start)
			continue
		}
		run.last = append(run.last[:0], line...)
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// Drain so the child never blocks on a full pipe before Wait.
		_, _ = io.Copy(io.Discard, out)
	}
	waitErr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.maxRSSK = ru.Maxrss
	}
	switch {
	case waitErr != nil:
		return run, fmt.Errorf("%s child: %w", kind, waitErr)
	case scanErr != nil:
		return run, fmt.Errorf("%s child output: %w", kind, scanErr)
	case run.setup == 0:
		return run, fmt.Errorf("%s child never became ready", kind)
	}
	return run, nil
}

// childEnv marks a process started by spawn. A child refuses to start
// without it, so a stray -child flag cannot turn a benchmark run into one.
const childEnv = "PERFBENCH_CHILD"

// runChild is the body of a child process.
func runChild(kind string, p params, stdout io.Writer) error {
	if os.Getenv(childEnv) != "1" {
		return fmt.Errorf("-child is internal to the benchmark")
	}
	switch kind {
	case "replay":
		return writeJSONLine(stdout, replayChild(p, stdout))
	case "cold":
		return writeJSONLine(stdout, coldChild(p, dseFigures, stdout))
	case "paper":
		return writeJSONLine(stdout, coldChild(p, paperFigures, stdout))
	case "ready":
		fmt.Fprintln(stdout, readyLine)
		return nil
	}
	return fmt.Errorf("unknown child kind %q", kind)
}

// timedReplayWorkers is the worker count of the timed replays. On a shared
// 2-CPU host a pool as wide as nproc times the neighbours as much as the
// simulator: alternating serial and 2-worker replays of the same config, the
// serial ones spread 5-9% (quartile distance over median) and the 2-worker
// ones 18-19%.
const timedReplayWorkers = 1

// replayChild is one replay-workload child: its set-up is a warm-up replay
// on nproc workers (it fills the shard pool and the memoized fleet
// and codec tables), then it times full serial replays until p.seconds pass.
// Both go through the same digest gate, so every run also checks that the
// output does not depend on the worker count.
func replayChild(p params, stdout io.Writer) replayChildOut {
	var out replayChildOut
	if r, err := sim.Run(p.simConfig(p.workers)); err != nil {
		out.WarmErr = err.Error()
	} else if out.WarmDigest, err = reportDigest(r); err != nil {
		out.WarmErr = err.Error()
	}
	fmt.Fprintln(stdout, readyLine)
	cfg := p.simConfig(timedReplayWorkers)
	start := time.Now()
	for len(out.Reps) == 0 || time.Since(start).Seconds() < p.seconds {
		t0 := time.Now()
		r, err := sim.Run(cfg)
		rep := timedRep{Ns: int64(time.Since(t0))}
		if err == nil {
			rep.Digest, err = reportDigest(r)
		}
		if err != nil {
			rep.Err = err.Error()
		}
		out.Reps = append(out.Reps, rep)
	}
	return out
}

// paperFigures is what a run regenerates to measure the model's paper
// error: the summary alone.
var paperFigures = []string{"dse-summary"}

// coldChild regenerates the given experiments once, in this fresh process:
// its set-up ends as soon as the process can start the first experiment.
func coldChild(p params, ids []string, stdout io.Writer) coldChildOut {
	fmt.Fprintln(stdout, readyLine)
	exp.SetWorkers(p.workers)
	out := coldChildOut{Digests: map[string]string{}}
	cfg := dseConfig(p.seed, p.files)
	before := exp.RunCacheStats()
	start := time.Now()
	var summary *exp.Table
	for _, id := range ids {
		e, err := exp.ByID(id)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		tables, err := e.Run(cfg)
		if err != nil {
			out.Err = fmt.Sprintf("%s: %v", id, err)
			return out
		}
		var b strings.Builder
		for _, t := range tables {
			b.WriteString(t.String())
		}
		out.Digests[id] = digest([]byte(b.String()))
		if id == "dse-summary" && len(tables) > 0 {
			summary = tables[0]
		}
	}
	out.WallNs = int64(time.Since(start))
	after := exp.RunCacheStats()
	out.Hits, out.Misses = after.Hits-before.Hits, after.Misses-before.Misses
	if summary == nil {
		out.Err = "dse-summary produced no table"
		return out
	}
	var err error
	if out.PaperErr, err = paperErrPct(summary); err != nil {
		out.Err = err.Error()
	}
	return out
}

// measureReplay is the untraced run of the replay and serving workloads.
func measureReplay(ctx context.Context, p params, ref reference) (map[string]float64, outcome, int, error) {
	var o outcome
	g := gate{want: ref.want(p, p.workload)}
	var nsPerCall, walls, setups, rss []float64
	var paperErr float64
	for k := 0; k < replayChildren; k++ {
		if k == 1 {
			// The paper child runs between timed children, so the timed
			// repetitions span most of the run and the host's speed drift
			// over it weighs less on their median.
			var err error
			if paperErr, err = measurePaperErr(ctx, p, ref, &o); err != nil {
				return nil, o, 0, err
			}
		}
		run, err := spawn(ctx, "replay", p, p.seconds/replayChildren)
		if err != nil {
			return nil, o, 0, err
		}
		var c replayChildOut
		if err := json.Unmarshal(run.last, &c); err != nil {
			return nil, o, 0, fmt.Errorf("replay child output: %w", err)
		}
		o.add(c.WarmErr == "" && g.ok(c.WarmDigest))
		for _, r := range c.Reps {
			ok := r.Err == "" && g.ok(r.Digest)
			o.add(ok)
			if !ok {
				continue
			}
			walls = append(walls, float64(r.Ns)/1e9)
			nsPerCall = append(nsPerCall, float64(r.Ns)/float64(p.calls))
		}
		setups = append(setups, run.setup.Seconds())
		rss = append(rss, float64(run.maxRSSK)/1024)
	}
	m := map[string]float64{
		"ns_per_call":   median(nsPerCall),
		"wall_s":        median(walls),
		"setup_s":       median(setups),
		"peak_rss_mb":   median(rss),
		"paper_err_pct": paperErr,
	}
	return m, o, len(walls), nil
}

// measurePaperErr regenerates dse-summary cold in a fresh process on the
// reference suites (paperSeed) and returns the model's paper error.
func measurePaperErr(ctx context.Context, p params, ref reference, o *outcome) (float64, error) {
	p.seed = paperSeed
	run, err := spawn(ctx, "paper", p, 0)
	if err != nil {
		return 0, err
	}
	var c coldChildOut
	if err := json.Unmarshal(run.last, &c); err != nil {
		return 0, fmt.Errorf("paper child output: %w", err)
	}
	o.add(c.Err == "" && dseDigestsOK(p, ref, paperFigures, c.Digests, map[string]*gate{}))
	return c.PaperErr, nil
}

// dseDigestsOK checks one regeneration's digests of the figures ids, each
// through its own gate in gates (filled on first use).
func dseDigestsOK(p params, ref reference, ids []string, got map[string]string, gates map[string]*gate) bool {
	ok := true
	for _, id := range ids {
		if gates[id] == nil {
			gates[id] = &gate{want: ref.want(p, id)}
		}
		if !gates[id].ok(got[id]) {
			ok = false
		}
	}
	return ok
}

// measureDSE is the untraced run of the dse workload: cold regenerations in
// fresh processes until the time budget is spent, at least minColdReps.
func measureDSE(ctx context.Context, p params, ref reference) (map[string]float64, outcome, int, error) {
	var o outcome
	gates := map[string]*gate{}
	var walls, perCall, setups, rss []float64
	start := time.Now()
	for o.attempted < minColdReps || time.Since(start).Seconds() < p.seconds {
		run, err := spawn(ctx, "cold", p, 0)
		if err != nil {
			return nil, o, 0, err
		}
		var c coldChildOut
		if err := json.Unmarshal(run.last, &c); err != nil {
			return nil, o, 0, fmt.Errorf("cold child output: %w", err)
		}
		// A repetition that hit a memo entry was not cold.
		ok := c.Err == "" && c.Misses > 0 && dseDigestsOK(p, ref, dseFigures, c.Digests, gates)
		o.add(ok)
		if !ok {
			continue
		}
		wall := float64(c.WallNs) / 1e9
		walls = append(walls, wall)
		// Each config-run miss simulates one suite, file by file.
		perCall = append(perCall, float64(c.WallNs)/float64(c.Misses*int64(p.files)))
		setups = append(setups, run.setup.Seconds())
		rss = append(rss, float64(run.maxRSSK)/1024)
	}
	if len(walls) == 0 {
		return nil, o, 0, fmt.Errorf("no dse repetition succeeded")
	}
	for k := 0; k < setupOnlyChildren; k++ {
		run, err := spawn(ctx, "ready", p, 0)
		o.add(err == nil)
		if err == nil {
			setups = append(setups, run.setup.Seconds())
		}
	}
	paperErr, err := measurePaperErr(ctx, p, ref, &o)
	if err != nil {
		return nil, o, 0, err
	}
	m := map[string]float64{
		"ns_per_call":   median(perCall),
		"wall_s":        median(walls),
		"setup_s":       median(setups),
		"peak_rss_mb":   median(rss),
		"paper_err_pct": paperErr,
	}
	return m, o, len(walls), nil
}
