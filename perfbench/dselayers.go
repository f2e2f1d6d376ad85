package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"

	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/corpus"
	"cdpu/internal/exp"
	"cdpu/internal/hcbench"
)

// traceDSE is the traced run of the dse workload. It calls the layers the
// figure pipeline is built from, each in its own span: the chunk-pool build
// (hcbench.BuildPool), suite generation (hcbench.Generate, which builds its
// own pool again, as every experiment's suite does), software compression of
// the decompression suites (comp.CompressCall), one pass of each suite
// through the default-configuration device model (core.Decompressor and
// core.Compressor over real frames, the full parse path) and the LZ77 kernel.
// It then regenerates the figure set in-process on one worker and reports
// the config-run memo traffic that took.
func traceDSE(p params, ref reference, tr *tracer) (map[string]float64, outcome, error) {
	var o outcome
	cfg := dseConfig(p.seed, p.files)
	m := zeroLayerMetrics()
	root := tr.begin("dse", -1)
	defer tr.end(root)

	files := corpus.StandardSuite()
	var ms runtime.MemStats
	var poolAlloc uint64
	for _, a := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		sp := tr.begin("hcbench.build_pool", root)
		_, err := hcbench.BuildPool(files, hcbench.DefaultChunkSize, a, a.DefaultLevel())
		tr.end(sp)
		runtime.ReadMemStats(&ms)
		poolAlloc += ms.TotalAlloc - before
		o.add(err == nil)
		if err != nil {
			return nil, o, fmt.Errorf("build %v pool: %w", a, err)
		}
		m["hcbench.build_pool_s."+strings.ToLower(a.String())] = float64(tr.spans[sp].dur()) / 1e9
	}
	m["hcbench.build_pool_alloc_mb"] = float64(poolAlloc) / (1 << 20)

	type suiteSpec struct {
		algo comp.Algorithm
		op   comp.Op
	}
	specs := []suiteSpec{
		{comp.Snappy, comp.Decompress}, {comp.ZStd, comp.Decompress},
		{comp.Snappy, comp.Compress}, {comp.ZStd, comp.Compress},
	}
	suites := make([]*hcbench.Suite, len(specs))
	var genNs int64
	for i, s := range specs {
		sp := tr.begin("hcbench.generate", root)
		suite, err := hcbench.Generate(hcbench.Spec{Algo: s.algo, Op: s.op, N: cfg.SuiteFiles, MaxFileBytes: cfg.MaxFileBytes, Seed: cfg.Seed})
		tr.end(sp)
		o.add(err == nil)
		if err != nil {
			return nil, o, fmt.Errorf("generate %v-%v suite: %w", s.algo, s.op, err)
		}
		genNs += tr.spans[sp].dur()
		suites[i] = suite
	}
	m["hcbench.generate_s"] = float64(genNs) / 1e9

	var compressNs, decompNs, compNs, simNs int64
	var kcycles float64
	for _, suite := range suites {
		if suite.Op == comp.Decompress {
			dec, err := core.NewDecompressor(core.Config{Algo: suite.Algo})
			if err != nil {
				return nil, o, err
			}
			for _, f := range suite.Files {
				sp := tr.begin("comp.compress_suite", root)
				enc, err := comp.CompressCall(f.Algo, f.Level, f.WindowLog, f.Data)
				tr.end(sp)
				compressNs += tr.spans[sp].dur()
				o.add(err == nil)
				if err != nil {
					return nil, o, fmt.Errorf("compress %s: %w", f.Name, err)
				}
				sp = tr.begin("core.decomp_config", root)
				res, err := dec.Decompress(enc)
				tr.end(sp)
				decompNs += tr.spans[sp].dur()
				simNs += tr.spans[sp].dur()
				o.add(err == nil && bytes.Equal(res.Output, f.Data))
				if err == nil {
					kcycles += res.Cycles / 1000
				}
			}
			continue
		}
		cmp, err := core.NewCompressor(core.Config{Algo: suite.Algo})
		if err != nil {
			return nil, o, err
		}
		for _, f := range suite.Files {
			sp := tr.begin("core.comp_config", root)
			res, err := cmp.Compress(f.Data)
			tr.end(sp)
			compNs += tr.spans[sp].dur()
			simNs += tr.spans[sp].dur()
			if err != nil {
				o.add(false)
				continue
			}
			kcycles += res.Cycles / 1000
			// The device's frame must decode back to the file in software.
			plain, err := comp.DecompressCall(f.Algo, res.Output)
			o.add(err == nil && bytes.Equal(plain, f.Data))
		}
	}
	m["comp.compress_suite_s"] = float64(compressNs) / 1e9
	m["core.decomp_config_s"] = float64(decompNs) / 1e9
	m["core.comp_config_s"] = float64(compNs) / 1e9
	m["core.sim_kcycles"] = kcycles
	if kcycles > 0 {
		m["core.host_ns_per_kcycle"] = float64(simNs) / kcycles
	}

	// The LZ77 kernel over the compression suites' files.
	matcher, err := lz77Matcher()
	if err != nil {
		return nil, o, err
	}
	var parsed, parseNs int64
	for _, suite := range suites[2:] {
		for _, f := range suite.Files {
			if parsed >= kernelBytes {
				break
			}
			sp := tr.begin("lz77.parse", root)
			matcher.Parse(f.Data)
			tr.end(sp)
			parseNs += tr.spans[sp].dur()
			parsed += int64(len(f.Data))
		}
	}
	m["lz77.parse_MBps"] = mbps(parsed, parseNs)

	// The figure set itself, on one worker: at the reference seed its tables
	// must match the reference, which the timed runs produced on nproc
	// workers. The memo traffic shows how much of it the config-run cache
	// served.
	exp.SetWorkers(1)
	before := exp.RunCacheStats()
	sp := tr.begin("exp.figures", root)
	for _, id := range dseFigures {
		e, err := exp.ByID(id)
		if err != nil {
			return nil, o, err
		}
		tables, err := e.Run(cfg)
		if err != nil {
			o.add(false)
			continue
		}
		var b strings.Builder
		for _, t := range tables {
			b.WriteString(t.String())
		}
		want := ref.want(p, id)
		o.add(want == "" || digest([]byte(b.String())) == want)
	}
	tr.end(sp)
	after := exp.RunCacheStats()
	m["exp.run_cache_hits"] = float64(after.Hits - before.Hits)
	m["exp.run_cache_misses"] = float64(after.Misses - before.Misses)
	return m, o, nil
}
