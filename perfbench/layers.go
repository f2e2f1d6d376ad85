package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"cdpu/internal/cluster"
	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/corpus"
	"cdpu/internal/fault"
	"cdpu/internal/fleet"
	"cdpu/internal/lz77"
	"cdpu/internal/sim"
	"cdpu/internal/stats"
	"cdpu/internal/traffic"
	"cdpu/internal/xeon"
	"cdpu/internal/zstdlite"
)

// The traced run re-drives the replay from outside the sim package: it calls
// the same public functions of fleet, traffic, corpus, comp, core, cluster
// and lz77 that sim.Run calls, with the same inputs, and wraps a span around
// each call. No program code is instrumented. Phases A (sampling) and B
// (payload synthesis, input encode, device model) are re-driven the way sim
// runs them serially; their spans against a serial untraced sim.Run of the
// same config give the coverage, and what they leave unexplained is phase C,
// the merge and the control planes. Storm-hit calls run once over their clean
// frame; the storm's recovery path (mutation, retries, backoff, fallback) is
// not re-driven, so its cost also stays in the unexplained part. The phase-C
// stepper sim uses for the config is then re-driven on its own with the
// recorded arrival and service stream, and the re-drive is checked against
// the Report of the serial sim.Run.

// slots mirrors the replay's device slots: compression before decompression,
// Snappy before ZStd.
var slots = [sim.FleetSlots]struct {
	algo comp.Algorithm
	op   comp.Op
	name string
}{
	{comp.Snappy, comp.Compress, "snappy-c"},
	{comp.ZStd, comp.Compress, "zstd-c"},
	{comp.Snappy, comp.Decompress, "snappy-d"},
	{comp.ZStd, comp.Decompress, "zstd-d"},
}

func slotOf(a comp.Algorithm, op comp.Op) int {
	s := 0
	if a == comp.ZStd {
		s = 1
	}
	if op == comp.Decompress {
		s += 2
	}
	return s
}

// payloadKinds is the replay's payload mix, in the order sim draws from it.
var payloadKinds = []corpus.Kind{
	corpus.Text, corpus.Log, corpus.JSON, corpus.Protobuf, corpus.Table, corpus.HTML,
}

// callRNG is the replay's per-call splitmix64 stream keyed on (seed, call
// index): it fixes each call's payload kind, payload seed and closed-loop
// arrival jitter.
type callRNG struct{ state uint64 }

func newCallRNG(seed int64, call int) callRNG {
	return callRNG{state: uint64(seed) ^ (uint64(call)+1)*0x9e3779b97f4a7c15}
}

func (r *callRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *callRNG) intn(n int) int   { return int(r.next() % uint64(n)) }
func (r *callRNG) int63() int64     { return int64(r.next() >> 1) }
func (r *callRNG) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// redriveCall is one call of the re-driven replay.
type redriveCall struct {
	rec     fleet.CallRecord
	kind    corpus.Kind
	seed    int64
	slot    int
	arrival float64
	class   int
	tenant  int
	// Phase-B outcome, the input of the phase-C re-drive.
	service float64
	brown   float64
	budget  float64
}

// pairs is how many (serial untraced sim.Run, traced phase A+B pass) pairs
// the traced run times back to back. The host's speed drifts over minutes,
// so the coverage and the residual are medians over pairs, each taken from
// two passes a few seconds apart.
const pairs = 3

// Batching geometry of sim's phase B: tiles of 64 calls, synthesized in
// batches of at most 2 MiB of payload and then executed back to back.
const (
	tileCalls  = 64
	batchBytes = 2 << 20
)

// layerAcc accumulates the per-layer counters of one traced replay.
type layerAcc struct {
	payloadBytes  int64
	encodeBytes   int64
	encodes       int
	fullEncodes   int
	execNs        [sim.FleetSlots]int64
	kcycles       float64
	execTotalNs   int64
	parsedBytes   int64
	parseNs       int64
	encodeAllocs  float64
	execAllocs    float64
	stepCoreNs    int64
	stepClusterNs int64
	burnNs        int64
}

// traceReplay is the traced run of the replay and serving workloads.
func traceReplay(p params, ref reference, tr *tracer) (map[string]float64, outcome, error) {
	var o outcome
	g := gate{want: ref.want(p, p.workload)}

	// One untraced replay at the run's worker count warms the process the
	// way the timed runs are warmed. Every untraced replay must produce the
	// reference Report, which also checks worker-count invariance.
	warm, err := sim.Run(p.simConfig(p.workers))
	o.add(err == nil && g.ok(digestOrEmpty(warm, err)))

	// Each pair times a serial untraced sim.Run and then a traced phase A+B
	// pass of the same config. Only the last pass's spans are kept; the
	// per-layer metrics come from it.
	cfg := p.simConfig(1)
	var report *sim.Report
	var walls, covers, residuals []float64
	var calls []redriveCall
	var acc layerAcc
	for k := 0; k < pairs; k++ {
		t0 := time.Now()
		serial, err := sim.Run(cfg)
		wall := float64(time.Since(t0))
		o.add(err == nil && g.ok(digestOrEmpty(serial, err)))
		if err != nil {
			return nil, o, err
		}
		report = serial
		ptr := tr
		if k < pairs-1 {
			ptr = newTracer()
		}
		acc = layerAcc{}
		var covered int64
		calls, covered, err = tracePhasesAB(ptr, cfg, &acc)
		o.add(err == nil)
		if err != nil {
			return nil, o, err
		}
		walls = append(walls, wall)
		covers = append(covers, float64(covered)/wall)
		residuals = append(residuals, wall-float64(covered))
	}

	redrive := tr.begin("phase-c-redrive", -1)
	latencies, err := stepCalls(tr, redrive, cfg, calls, &acc)
	tr.end(redrive)
	o.add(err == nil)
	if err != nil {
		return nil, o, err
	}
	// The re-drive must replay the calls sim replayed; where it re-drives
	// every layer the replay uses, it must also reproduce its latencies.
	if err := crossCheck(cfg, report, calls, latencies); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: traced re-drive disagrees with sim.Run: %v\n", err)
		o.add(false)
	} else {
		o.add(true)
	}

	kernels := tr.begin("kernels", -1)
	parseKernel(tr, kernels, calls, &acc)
	tr.end(kernels)

	if err := countAllocs(cfg, calls, &acc); err != nil {
		return nil, o, err
	}

	ls := tr.layers()
	n := float64(len(calls))
	m := zeroLayerMetrics()
	m["fleet.sample_ns"] = float64(ls["fleet.sample"].Total) / n
	m["traffic.arrival_ns"] = float64(ls["traffic.arrival"].Total) / n
	m["corpus.gen_s"] = float64(ls["corpus.gen"].Total) / 1e9
	m["corpus.gen_MBps"] = mbps(acc.payloadBytes, ls["corpus.gen"].Total)
	m["comp.encode_s"] = float64(ls["comp.encode"].Total) / 1e9
	m["comp.encode_MBps"] = mbps(acc.encodeBytes, ls["comp.encode"].Total)
	m["comp.encode_allocs_per_call"] = acc.encodeAllocs
	if acc.encodes > 0 {
		m["comp.full_encode_frac"] = float64(acc.fullEncodes) / float64(acc.encodes)
	}
	for s := range slots {
		m["core.exec_s."+slots[s].name] = float64(acc.execNs[s]) / 1e9
	}
	m["core.exec_allocs_per_call"] = acc.execAllocs
	m["core.sim_kcycles"] = acc.kcycles
	if acc.kcycles > 0 {
		m["core.host_ns_per_kcycle"] = float64(acc.execTotalNs) / acc.kcycles
	}
	m["lz77.parse_MBps"] = mbps(acc.parsedBytes, acc.parseNs)
	m["core.step_ns"] = float64(acc.stepCoreNs) / n
	m["cluster.step_ns"] = float64(acc.stepClusterNs) / n
	m["traffic.burn_observe_ns"] = float64(acc.burnNs) / n
	m["sim.serial_wall_s"] = median(walls) / 1e9
	m["sim.residual_s"] = median(residuals) / 1e9
	m["trace.coverage"] = median(covers)
	return m, o, nil
}

// tracePhasesAB re-drives phases A and B under one root span and returns the
// calls and the time the two phases' spans cover.
func tracePhasesAB(tr *tracer, cfg sim.Config, acc *layerAcc) ([]redriveCall, int64, error) {
	root := tr.begin("sim", -1)
	phaseA := tr.begin("phase-a", root)
	calls := sampleCalls(tr, phaseA, cfg)
	tr.end(phaseA)
	phaseB := tr.begin("phase-b", root)
	err := execCalls(tr, phaseB, cfg, calls, acc)
	tr.end(phaseB)
	tr.end(root)
	return calls, tr.spans[phaseA].dur() + tr.spans[phaseB].dur(), err
}

// clusterMode reports whether sim routes the replay through replica groups,
// by the same condition as sim.Config's own: more than one replica, a
// failover policy or a lifecycle schedule.
func clusterMode(cfg sim.Config) bool {
	return cfg.Replicas > 1 || cfg.Failover.Enabled() || cfg.Lifecycle != nil
}

// crossCheck holds the re-drive against the Report of a serial sim.Run of
// the same config: the same number of calls and uncompressed bytes and, on a
// healthy single-device replay (no replica groups, no storm), the same mean
// and p99 latency, bit for bit. latencies are the re-driven served
// latencies in sim's partition order.
func crossCheck(cfg sim.Config, r *sim.Report, calls []redriveCall, latencies []float64) error {
	bytes := 0
	for i := range calls {
		bytes += calls[i].rec.UncompressedBytes
	}
	if len(calls) != r.Calls || bytes != r.UncompressedBytes {
		return fmt.Errorf("%d calls of %d bytes, sim.Run replayed %d of %d", len(calls), bytes, r.Calls, r.UncompressedBytes)
	}
	if clusterMode(cfg) || cfg.Storm != nil {
		return nil
	}
	if len(latencies) == 0 {
		return fmt.Errorf("no served call")
	}
	sum := 0.0
	for _, l := range latencies {
		sum += l
	}
	mean := sum / float64(len(latencies)) / 2000
	p99 := stats.P99(latencies) / 2000
	if mean != r.MeanLatencyUs || p99 != r.P99LatencyUs {
		return fmt.Errorf("latency mean/p99 %v/%v us, sim.Run %v/%v us", mean, p99, r.MeanLatencyUs, r.P99LatencyUs)
	}
	return nil
}

// digestOrEmpty is the Report's digest, or "" (which no gate accepts) when
// the replay or the digest failed.
func digestOrEmpty(r *sim.Report, err error) string {
	if err != nil {
		return ""
	}
	d, err := reportDigest(r)
	if err != nil {
		return ""
	}
	return d
}

func zeroLayerMetrics() map[string]float64 {
	m := map[string]float64{}
	for _, s := range layerMetrics {
		m[s.name] = 0
	}
	return m
}

func mbps(bytes, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / (float64(ns) / 1e9)
}

// sampleCalls re-drives phase A: the fleet sampler, then the open-loop
// arrival generator, each in one span. The two draw from independent
// streams, so sampling all calls before drawing any arrival gives the same
// calls and arrivals as sim's interleaved loop.
func sampleCalls(tr *tracer, parent int, cfg sim.Config) []redriveCall {
	maxBytes := cfg.MaxCallBytes
	calls := make([]redriveCall, 0, cfg.Calls)
	model := fleet.NewModel(cfg.Seed)
	sp := tr.begin("fleet.sample", parent)
	for len(calls) < cfg.Calls {
		rec := model.SampleCall()
		if rec.Algo != comp.Snappy && rec.Algo != comp.ZStd {
			continue
		}
		rec.UncompressedBytes = min(rec.UncompressedBytes, maxBytes)
		calls = append(calls, redriveCall{rec: rec, slot: slotOf(rec.Algo, rec.Op)})
	}
	tr.end(sp)
	at := 0.0
	for i := range calls {
		c := &calls[i]
		r := newCallRNG(cfg.Seed, i)
		c.kind = payloadKinds[r.intn(len(payloadKinds))]
		c.seed = r.int63()
		if !cfg.Traffic.Enabled() {
			// Closed loop: arrivals spaced to the offered bandwidth (2 GB/s
			// by default), in device cycles at 2 GHz.
			c.arrival = at
			at += float64(c.rec.UncompressedBytes) * (2.0 / offeredGBps(cfg)) * (0.5 + r.float64())
		}
	}
	if cfg.Traffic.Enabled() {
		gen := traffic.NewGen(cfg.Traffic, cfg.Tenants, cfg.SLO, cfg.Seed)
		sp := tr.begin("traffic.arrival", parent)
		for i := range calls {
			a := gen.Next()
			calls[i].arrival, calls[i].class, calls[i].tenant = a.At, a.Class, a.Tenant
		}
		tr.end(sp)
	}
	return calls
}

func offeredGBps(cfg sim.Config) float64 {
	if cfg.OfferedGBps == 0 {
		return 2
	}
	return cfg.OfferedGBps
}

func pipelines(cfg sim.Config) int { return max(1, cfg.Pipelines) }

// execCalls re-drives phase B serially with sim's batching geometry: a span
// per payload synthesis, per decompress-op input encode and per device call.
func execCalls(tr *tracer, parent int, cfg sim.Config, calls []redriveCall, acc *layerAcc) error {
	var devs [sim.FleetSlots]*core.Device
	for s := range slots {
		d, err := core.NewDevice(core.Config{Algo: slots[s].algo, Op: slots[s].op, Placement: cfg.Placement}, 1)
		if err != nil {
			return err
		}
		d.SetResultReuse(true)
		devs[s] = d
	}
	coder := comp.NewCoder()
	var gen corpus.Gen
	var arena, enc []byte
	offs := []int{0}
	replicas := max(1, cfg.Replicas)
	for lo := 0; lo < len(calls); {
		hi := lo
		budget := 0
		for hi < len(calls) && (hi == lo || budget < batchBytes) && (hi == lo || hi%tileCalls != 0) {
			budget += calls[hi].rec.UncompressedBytes
			hi++
		}
		arena, offs = arena[:0], offs[:1]
		for i := lo; i < hi; i++ {
			c := &calls[i]
			sp := tr.begin("corpus.gen", parent)
			arena = gen.AppendGenerate(arena, c.kind, c.rec.UncompressedBytes, c.seed)
			tr.end(sp)
			offs = append(offs, len(arena))
			acc.payloadBytes += int64(c.rec.UncompressedBytes)
		}
		for i := lo; i < hi; i++ {
			c := &calls[i]
			plain := arena[offs[i-lo]:offs[i-lo+1]]
			_, _, stormHit := cfg.Storm.Draw(i)
			brownout := cfg.Lifecycle != nil && cfg.Lifecycle.AnyBrownoutRange(0, replicas, i)
			devInput := plain
			var plan *zstdlite.Plan
			if c.rec.Op == comp.Decompress {
				// Frames nothing parses get size-only entropy payloads;
				// storm-hit and brownout calls re-execute real bytes, so
				// they take the full encoder, as in sim.
				full := stormHit || brownout
				wl := min(c.rec.WindowLog, 17)
				var err error
				sp := tr.begin("comp.encode", parent)
				if full {
					enc, plan, err = coder.AppendCompressPlan(enc[:0], c.rec.Algo, c.rec.Level, wl, plain)
				} else {
					enc, plan, err = coder.AppendCompressPlanSizeOnly(enc[:0], c.rec.Algo, c.rec.Level, wl, plain)
				}
				tr.end(sp)
				if err != nil {
					return fmt.Errorf("call %d: encode: %w", i, err)
				}
				acc.encodes++
				acc.encodeBytes += int64(len(plain))
				if full {
					acc.fullEncodes++
				}
				devInput = enc
			}
			dev := devs[c.slot]
			svc, err := execOne(tr, parent, dev, devInput, plain, plan, stormHit, c.slot, acc)
			if err != nil {
				return fmt.Errorf("call %d: %w", i, err)
			}
			c.service = svc
			inB, outB := len(plain), 0
			if c.rec.Op == comp.Decompress {
				inB, outB = len(devInput), len(plain)
			}
			c.budget = core.Config{Algo: c.rec.Algo, Op: c.rec.Op, Placement: cfg.Placement}.WatchdogBudget(inB, outB)
			if brownout && !stormHit {
				// A browned-out replica runs the call again with stalled MSHRs.
				dev.SetFaultInjector(fault.Plan{StallEvery: 1, StallMSHRs: cfg.Lifecycle.StallMSHRs()})
				c.brown, err = execOne(tr, parent, dev, devInput, plain, nil, true, c.slot, acc)
				dev.SetFaultInjector(nil)
				if err != nil {
					return fmt.Errorf("call %d: brownout: %w", i, err)
				}
			}
		}
		lo = hi
	}
	return nil
}

// execOne runs one device call in a span and returns its modeled cycles.
// Planned execution skips the frame parse; storm-hit and brownout calls run
// the unplanned path over real bytes.
func execOne(tr *tracer, parent int, dev *core.Device, input, plain []byte, plan *zstdlite.Plan, unplanned bool, slot int, acc *layerAcc) (float64, error) {
	sp := tr.begin("core.exec", parent)
	var res *core.Result
	var err error
	if plan != nil && !unplanned {
		res, err = dev.ExecPlanned(input, plan, plain)
	} else {
		res, err = dev.Exec(input)
	}
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	d := tr.spans[sp].dur()
	acc.execNs[slot] += d
	acc.execTotalNs += d
	acc.kcycles += res.Cycles / 1000
	return res.Cycles, nil
}

// stepCalls re-drives, one device slot at a time, the phase-C stepper sim
// uses for the config with the recorded stream: core.ReplayState.StepCall
// (the single-device FCFS pass) or, in cluster mode,
// cluster.GroupState.Step (the replica-group dispatcher). The SLO burn
// tracker then observes the outcomes in call order. It returns the served
// latencies of the single-device pass, in sim's partition order.
func stepCalls(tr *tracer, parent int, cfg sim.Config, calls []redriveCall, acc *layerAcc) ([]float64, error) {
	open := cfg.Traffic.Enabled()
	clustered := clusterMode(cfg)
	bad := make([]bool, len(calls))
	var latencies []float64
	for s := range slots {
		devCfg := core.Config{Algo: slots[s].algo, Op: slots[s].op, Placement: cfg.Placement}
		dev, err := core.NewDevice(devCfg, pipelines(cfg))
		if err != nil {
			return nil, err
		}
		var idxs []int
		for i := range calls {
			if calls[i].slot == s {
				idxs = append(idxs, i)
			}
		}
		target := func(c *redriveCall) float64 {
			if !open {
				return 0
			}
			return cfg.SLO.TargetCycles(c.class)
		}

		if !clustered {
			st := dev.NewReplayState(len(idxs), cfg.Resilience, false, false)
			sp := tr.begin("core.step", parent)
			for _, i := range idxs {
				c := &calls[i]
				if err := st.StepCall(c.arrival, c.service, 0, 0, c.class, target(c)); err != nil {
					tr.end(sp)
					return nil, fmt.Errorf("core step, call %d: %w", i, err)
				}
				last := st.Last()
				if last.Err == nil {
					latencies = append(latencies, last.Latency)
				}
				bad[i] = last.Err != nil || (open && last.Latency > target(c))
			}
			tr.end(sp)
			acc.stepCoreNs += tr.spans[sp].dur()
			continue
		}

		grp := &cluster.Group{
			Replicas:    max(1, cfg.Replicas),
			Pipelines:   pipelines(cfg),
			ResetCycles: dev.PipelineResetCycles(),
			Unit:        devCfg.Name(),
			Resil:       cfg.Resilience,
			Policy:      cfg.Failover,
			Lifecycle:   cfg.Lifecycle,
			Autoscale:   cfg.Autoscale,
		}
		gs := grp.NewState(len(idxs))
		sp := tr.begin("cluster.step", parent)
		for _, i := range idxs {
			c := &calls[i]
			call := cluster.Call{
				Arrival:    c.arrival,
				Index:      i,
				Service:    c.service,
				Brown:      c.brown,
				HangBudget: c.budget,
				Bytes:      c.rec.UncompressedBytes,
				Priority:   c.class,
				Target:     target(c),
			}
			if cfg.Resilience.SoftwareFallback {
				call.Software = xeon.Seconds(xeon.Cycles(c.rec.Algo, c.rec.Op, c.rec.Level, c.rec.UncompressedBytes)) * 2.0e9
			}
			if err := gs.Step(&call); err != nil {
				tr.end(sp)
				return nil, fmt.Errorf("cluster step, call %d: %w", i, err)
			}
			last := gs.Last()
			bad[i] = last.Err != nil || (open && last.Latency > call.Target)
		}
		tr.end(sp)
		acc.stepClusterNs += tr.spans[sp].dur()
	}
	if cfg.Burn.Enabled() {
		trk := traffic.NewBurnTracker(cfg.Burn, cfg.Seed)
		sp := tr.begin("traffic.burn_observe", parent)
		for i := range calls {
			trk.Observe(calls[i].arrival, calls[i].tenant, calls[i].class, bad[i])
		}
		tr.end(sp)
		acc.burnNs = tr.spans[sp].dur()
	}
	return latencies, nil
}

// kernelBytes caps the payload the LZ77 kernel row parses.
const kernelBytes = 16 << 20

// lz77Matcher is the matcher the CDPU compressor builds at its default
// history SRAM and hash table.
func lz77Matcher() (*lz77.Matcher, error) {
	return lz77.NewMatcher(lz77.Config{
		WindowSize:    core.DefaultHistorySRAM,
		TableEntries:  core.DefaultHashEntries,
		Associativity: core.DefaultHashAssoc,
		MinMatch:      4,
	})
}

// parseKernel times lz77.Matcher.Parse over the traced run's own payloads,
// regenerated outside the span, up to kernelBytes.
func parseKernel(tr *tracer, parent int, calls []redriveCall, acc *layerAcc) {
	m, err := lz77Matcher()
	if err != nil {
		return
	}
	var gen corpus.Gen
	var buf []byte
	for i := range calls {
		if acc.parsedBytes >= kernelBytes {
			break
		}
		c := &calls[i]
		buf = gen.AppendGenerate(buf[:0], c.kind, c.rec.UncompressedBytes, c.seed)
		sp := tr.begin("lz77.parse", parent)
		m.Parse(buf)
		tr.end(sp)
		acc.parseNs += tr.spans[sp].dur()
		acc.parsedBytes += int64(len(buf))
	}
}

// allocCalls is how many calls the allocation pass measures.
const allocCalls = 256

// countAllocs measures heap allocations per input encode and per device call
// over the first allocCalls calls, outside any timed span: reading the
// allocator's counters stops the world, so it stays out of the timings.
func countAllocs(cfg sim.Config, calls []redriveCall, acc *layerAcc) error {
	var devs [sim.FleetSlots]*core.Device
	for s := range slots {
		d, err := core.NewDevice(core.Config{Algo: slots[s].algo, Op: slots[s].op, Placement: cfg.Placement}, 1)
		if err != nil {
			return err
		}
		d.SetResultReuse(true)
		devs[s] = d
	}
	coder := comp.NewCoder()
	var gen corpus.Gen
	var plain, enc []byte
	var ms runtime.MemStats
	var encAllocs, execAllocs uint64
	encN, execN := 0, 0
	// A first pass over the same calls warms the coder and device tables,
	// so the counted pass sees the steady state the timed replays see.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < min(allocCalls, len(calls)); i++ {
			c := &calls[i]
			plain = gen.AppendGenerate(plain[:0], c.kind, c.rec.UncompressedBytes, c.seed)
			input := plain
			var plan *zstdlite.Plan
			if c.rec.Op == comp.Decompress {
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				var err error
				enc, plan, err = coder.AppendCompressPlanSizeOnly(enc[:0], c.rec.Algo, c.rec.Level, min(c.rec.WindowLog, 17), plain)
				runtime.ReadMemStats(&ms)
				if err != nil {
					return fmt.Errorf("alloc pass, call %d: %w", i, err)
				}
				if pass == 1 {
					encAllocs += ms.Mallocs - before
					encN++
				}
				input = enc
			}
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			var err error
			if plan != nil {
				_, err = devs[c.slot].ExecPlanned(input, plan, plain)
			} else {
				_, err = devs[c.slot].Exec(input)
			}
			runtime.ReadMemStats(&ms)
			if err != nil {
				return fmt.Errorf("alloc pass, call %d: %w", i, err)
			}
			if pass == 1 {
				execAllocs += ms.Mallocs - before
				execN++
			}
		}
	}
	if encN > 0 {
		acc.encodeAllocs = float64(encAllocs) / float64(encN)
	}
	if execN > 0 {
		acc.execAllocs = float64(execAllocs) / float64(execN)
	}
	return nil
}
