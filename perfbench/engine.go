package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"mdes"
	"mdes/internal/ir"
	"mdes/internal/machines"
)

// engineParallelism is the fan-out of every engine-* scheduling call.
const engineParallelism = 2

// engineInput is one ScheduleBlocks call of an engine workload.
type engineInput struct {
	d      *desc
	blocks []*ir.Block
	ref    []*mdes.Result
	ops    int
}

// runEnginePaperMix schedules each paper machine's generated corpus in
// one call, machine after machine.
func runEnginePaperMix(ctx context.Context, o *options, st *stamp) (*outcome, error) {
	return runEngine(ctx, o, st, paperMachines, func(m machines.Name, i int) ([][]*ir.Block, error) {
		b, err := program(m, batchOps, subSeed(o.seed, 1, int64(i)))
		return [][]*ir.Block{b}, err
	}, len(paperMachines))
}

// runEngineLongBlocks schedules small batches of long K5 blocks.
func runEngineLongBlocks(ctx context.Context, o *options, st *stamp) (*outcome, error) {
	return runEngine(ctx, o, st, []machines.Name{machines.K5}, func(machines.Name, int) ([][]*ir.Block, error) {
		out := make([][]*ir.Block, longBatches)
		for j := range out {
			var err error
			if out[j], err = longBlocks(j, subSeed(o.seed, 2)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}, 2)
}

// runEngine drives the library in process: one goroutine issues
// ScheduleBlocks calls back to back, each fanning out over
// engineParallelism goroutines. Set-up is the translator pipeline,
// NewEngine and input generation; traced calls are the first
// tracedCalls inputs.
func runEngine(ctx context.Context, o *options, st *stamp, ms []machines.Name,
	gen func(m machines.Name, i int) ([][]*ir.Block, error), tracedCalls int) (*outcome, error) {
	var (
		setups []float64
		inputs []engineInput
		descs  []*desc
	)
	for rep := 0; rep < o.setupReps(); rep++ {
		runtime.GC()
		t0 := time.Now()
		inputs, descs = nil, nil
		for i, m := range ms {
			d, err := buildDesc(m, "full")
			if err != nil {
				return nil, err
			}
			batches, err := gen(m, i)
			if err != nil {
				return nil, err
			}
			descs = append(descs, d)
			for _, b := range batches {
				inputs = append(inputs, engineInput{d: d, blocks: b, ops: countOps(b)})
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	out := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
	dg := newDigest()
	var counts probeCounts
	for i := range inputs {
		in := &inputs[i]
		ref, err := reference(in.d, in.blocks)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		in.ref = ref
		dg.add(ref)
		counts.add(ref)
	}
	for _, d := range descs {
		st.Fingerprints[string(d.machine)] = d.fingerprint
	}
	if err := checkDigest(o, dg.String(), out); err != nil {
		return nil, err
	}

	// Uploads cycle through the machines; the figure is the mean of the
	// machines' medians.
	builds := make(map[machines.Name][]float64)
	// Between calls, every 100 ms of the window: often enough for a
	// steady median, rarely enough to take under one percent of it.
	uploads := &sideUploads{every: 100 * time.Millisecond, upload: func(k int) error {
		m := ms[k%len(ms)]
		t0 := time.Now()
		if _, err := buildDesc(m, "full"); err != nil {
			return err
		}
		builds[m] = append(builds[m], float64(time.Since(t0))/1e6)
		return nil
	}}
	next := 0
	call := func(w, seg int) (int, int, error) {
		if uploads.due(w, seg) {
			return 0, 0, uploads.run()
		}
		in := &inputs[next%len(inputs)]
		next++
		res, _, err := in.d.engine.ScheduleBlocks(ctx, in.blocks, engineParallelism)
		if err != nil {
			return 0, 0, err
		}
		if !sameResults(res, in.ref) {
			return 0, 0, errMismatch
		}
		return len(in.blocks), in.ops, nil
	}

	window := time.Duration(o.seconds) * time.Second
	warm(ctx, 1, o.warmup(), call)
	proc := startProcSampler(os.Getpid(), 20*time.Millisecond)
	rt0 := readRuntime()
	stats := closedLoop(ctx, 1, 0, window, call)
	rt1 := readRuntime()
	if err := proc.Stop(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(builds) == 0 {
		return nil, fmt.Errorf("no upload timed in the window")
	}
	upload := 0.0
	for _, xs := range builds {
		upload += median(xs)
	}
	fillEndToEnd(out, stats, proc, upload/float64(len(builds)), median(setups))

	if !o.trace {
		return out, nil
	}
	dc := newDecomposer()
	for round := 0; round < tracedRounds; round++ {
		for i := 0; i < tracedCalls && i < len(inputs); i++ {
			in := inputs[i]
			kind := in.d.engine.CheckerKind()
			if err := dc.call(tracedCall{d: in.d, kind: kind, par: engineParallelism, blocks: in.blocks, ref: in.ref}); err != nil {
				return nil, fmt.Errorf("traced decomposition: %w", err)
			}
		}
	}
	desc, err := describeAll(dc, descs, descs[0].engine.CheckerKind(), o)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	for k, v := range dc.metrics() {
		m[k] = v
	}
	for k, v := range desc {
		m[k] = v
	}
	m["loadgen.lag_p99_ms"] = 0
	m["loadgen.backlog_max"] = 0
	m["loadgen.sent"] = float64(stats.attempted)
	m["loadgen.samples"] = float64(len(stats.lat))
	m["mdesclient.request_bytes"] = float64(dc.bytes) / float64(dc.calls)
	m["mdesclient.response_bytes"] = float64(dc.respBytes) / float64(dc.calls)
	m["server.http_other_ms"] = 0
	m["server.process_ms"] = 0
	m["server.shed_429"] = 0
	m["server.shed_503"] = 0
	m["server.errors"] = 0
	m["runtime.alloc_bytes_per_op"] = float64(rt1.allocBytes-rt0.allocBytes) / float64(stats.ops)
	m["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)
	countMetrics(m, counts)
	return out, writeSpans(o, dc)
}

// tracedRounds is the number of times the traced run decomposes each of
// its inputs. Each round gives every input another pair of timings to
// reconcile.
const tracedRounds = 8

// fillEndToEnd sets the end-to-end metrics every workload reports:
// throughput, CPU per op and peak memory as medians over the window's
// segments, latency percentiles as latencyPercentile gives them.
func fillEndToEnd(out *outcome, s *loopStats, p *procSampler, uploadMs, setupS float64) {
	cpu, peak := segmentFigures(s, p)
	out.metrics["blocks_per_s"] = median(s.segmentRates())
	latencyMetrics(out, s)
	out.metrics["cpu_ms_per_kop"] = cpu
	out.metrics["upload_p50_ms"] = uploadMs
	out.metrics["setup_s"] = setupS
	out.metrics["peak_rss_mb"] = peak
	out.notes["ops_scheduled"] = s.ops
	out.notes["blocks_scheduled"] = s.blocks
	out.notes["window_s"] = s.wall.Seconds()
	out.notes["segment_blocks_per_s"] = s.segmentRates()
	out.attempted, out.failed = s.attempted, s.failed
	if s.lastErr != nil {
		out.notes["last_error"] = s.lastErr.Error()
	}
}

// countMetrics sets the probe and schedule ratios of the reference
// schedules. They are fixed by the descriptions and inputs.
func countMetrics(m map[string]float64, c probeCounts) {
	m["probe.attempts_per_op"] = float64(c.attempts) / float64(c.ops)
	m["probe.options_per_attempt"] = float64(c.options) / float64(c.attempts)
	m["probe.checks_per_attempt"] = float64(c.checks) / float64(c.attempts)
	m["probe.success_ratio"] = float64(c.ops) / float64(c.attempts)
	m["sched.length_per_op"] = float64(c.length) / float64(c.ops)
}

// describeAll times the description path of every description and
// averages the per-description medians.
func describeAll(dc *decomposer, descs []*desc, kind mdes.CheckerKind, o *options) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, d := range descs {
		m, err := dc.describe(d, kind, o.work, o.setupReps())
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	n := float64(len(descs))
	return map[string]float64{
		"translator.load_ms":     sum["translator.load"] / n,
		"translator.optimize_ms": sum["translator.optimize"] / n,
		"descache.cold_load_ms":  sum["descache.cold_load"] / n,
		"descache.warm_load_ms":  sum["descache.warm_load"] / n,
		"descache.arena_open_ms": sum["descache.arena_open"] / n,
		"engine.new_ms":          sum["engine.new"] / n,
	}, nil
}

// runtimeSample is the benchmark process's allocation and GC CPU so far.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// writeSpans writes the traced run's spans beside its result file.
func writeSpans(o *options, dc *decomposer) error {
	f, err := os.Create(filepath.Join(o.results, fmt.Sprintf("%s-seed%d-spans.tsv", o.workload, o.seed)))
	if err != nil {
		return err
	}
	if err := dc.log.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
