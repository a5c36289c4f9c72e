package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"mdes"
	"mdes/internal/check"
	"mdes/internal/cli"
	"mdes/internal/ir"
	"mdes/internal/resctx"
	"mdes/internal/sched"
	"mdes/internal/server"
	"mdes/internal/stats"
	"mdes/sdk/mdesclient"
)

// tracedCall is one input of the serial decomposition pass: a batch of
// blocks as the workload sends it, and the description and backend that
// serve it.
type tracedCall struct {
	d    *desc
	kind mdes.CheckerKind
	// opts are the serving engine's options beyond the backend.
	opts []mdes.EngineOption
	// par is the parallelism the workload's scheduling call uses.
	par    int
	blocks []*ir.Block
	ref    []*mdes.Result
	// request, when set, sends the batch over loopback HTTP to the
	// daemon's server running inside the benchmark and checks the
	// response. Its wall time is the call's traced end-to-end time, which
	// the client, transport and server stages, run in the same process,
	// must account for. Without it the end-to-end time is ScheduleBlocks
	// at parallelism 1, which the engine's dispatch and the blocks'
	// ScheduleBlock calls must account for.
	request func() error
	// daemon sends the same batch to the mdesd child and checks the
	// response. It is timed beside request; the difference is what the
	// separate process adds, mostly its own collector.
	daemon func() error
	// transport carries an encoded request and response over the same
	// kind of HTTP connection, with no work at either end.
	transport func(req, resp []byte) error
	// fixed returns the in-process server's fixed cost of a request: the
	// round trip of the smallest request it serves, less the transport of
	// its bytes.
	fixed func() (time.Duration, error)
}

// decomposer re-runs each layer's entry point on the workload's inputs,
// one call at a time, with a span around every call into a layer. The
// probe layer is timed by replaying recorded attempt streams.
type decomposer struct {
	log       spanLog
	clock     int64 // cost of one span clock reading
	ops       int64
	edges     int64
	bytes     int64 // request bytes decoded
	respBytes int64 // response bytes encoded
	calls     int
	// par1 and par2 sum the engine fan-out times at parallelism 1 and 2;
	// sched sums the times at each call's own parallelism, and traced the
	// times at parallelism 1 with a ring tracer attached.
	par1, par2, sched, traced int64
	// unaccountedShare holds, per decomposition, the share of its
	// end-to-end time that its stages do not account for; httpOther, per
	// daemon request, the time that client, server and engine work does
	// not account for; process, per request, the daemon's time less the
	// in-process server's. fixedNs sums the fixed costs.
	unaccountedShare, httpOther, process []float64
	fixedNs                              int64
}

func newDecomposer() *decomposer { return &decomposer{clock: clockCost()} }

// timed runs f inside a span named name under parent and returns the
// span's duration.
func (dc *decomposer) timed(name string, parent int, f func() error) (int64, error) {
	id := dc.log.begin(name, parent)
	err := f()
	dc.log.end(id)
	return dc.log.spans[id].End - dc.log.spans[id].Start, err
}

// call decomposes one batch. With a request: the daemon request and the
// in-process request; client encode, server decode, IR conversion, the
// engine fan-out at parallelism 1, response encode, client decode,
// transport and fixed cost; the two requests again, in reverse order;
// then the fan-out at parallelism 2 and on as many empty blocks, the
// blocks one by one, the fan-out at 1 with a ring tracer, and per block
// the graph build, the priority heights and the replayed probe calls.
// Without one: client encode, server decode, IR conversion and the
// fan-out at parallelism 2; the fan-out at 1, on empty blocks, the blocks
// one by one, the fan-out at 1 again, with a ring tracer, and the
// per-block steps; last response encode and client decode.
//
// With a request the steps from the first request to the probe replay
// run with the collector off, after one collection, so that no step pays
// for another's garbage: with it on, the in-process request and its
// stages paid for cycles at different moments. The daemon request runs
// in a process of its own, with its collector on; what that costs is in
// server.process_ms. Without a request the steps from the first fan-out
// at parallelism 1 to the probe replay run with the collector off and on
// one CPU (GOMAXPROCS 1), where nothing overlaps: the call at parallelism
// 1 is the end-to-end time, and the fan-out on empty blocks plus the
// blocks one by one must account for it. On more CPUs a handoff can wake
// an idle CPU, so the two sides would not compare. The collector's share
// of the window is reported apart, as runtime.gc_cpu_frac.
func (dc *decomposer) call(c tracedCall) error {
	ctx := context.Background()
	opts := append([]mdes.EngineOption{mdes.WithChecker(c.kind)}, c.opts...)
	eng, err := mdes.NewEngine(c.d.compiled, opts...)
	if err != nil {
		return err
	}
	tracer, ring := mdes.NewRingTracer(len(c.blocks), 1)
	traced, err := mdes.NewEngine(c.d.compiled, append(opts, mdes.WithTracer(tracer))...)
	if err != nil {
		return err
	}
	factory, err := check.NewFactory(c.d.compiled, c.kind)
	if err != nil {
		return err
	}
	pool := resctx.NewPoolFor(factory)
	cx, rx := pool.Get(), pool.Get()
	defer cx.Release()
	defer rx.Release()
	s := sched.NewWithContext(c.d.compiled, cx)
	wire := server.FromIR(c.blocks)
	// Warm the engines and the scheduler once, untimed: a serving engine
	// is warm, and a fresh one grows its scratch space on its first blocks.
	for _, e := range []*mdes.Engine{eng, traced} {
		if _, _, err := e.ScheduleBlocks(ctx, c.blocks, 2); err != nil {
			return err
		}
	}
	for _, b := range c.blocks {
		if _, err := s.ScheduleBlock(b); err != nil {
			return err
		}
	}

	root := dc.log.begin("call", -1)
	defer dc.log.end(root)
	var (
		body     []byte
		respBody bytes.Buffer
		decoded  mdesclient.ScheduleResponse
		req      *mdesclient.ScheduleRequest
		blocks   []*ir.Block
		r1, r2   []*mdes.Result
		results  = make([]*mdes.Result, len(c.blocks))
		builder  ir.Builder
		took     = map[string]int64{}
		e2e      []int64
		viaChild []int64
	)
	type step struct {
		name string
		f    func() error
	}
	run := func(steps ...step) error {
		for _, st := range steps {
			var err error
			if took[st.name], err = dc.timed(st.name, root, st.f); err != nil {
				return fmt.Errorf("%s: %w", st.name, err)
			}
		}
		return nil
	}
	// end times one end-to-end measurement: the daemon request, or the
	// fan-out at parallelism 1.
	end := func() error {
		name, f := "request", c.request
		if f == nil {
			name, f = "engine.schedule_blocks.p1", func() (err error) { r1, _, err = eng.ScheduleBlocks(ctx, blocks, 1); return err }
		}
		d, err := dc.timed(name, root, f)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		e2e = append(e2e, d)
		return nil
	}
	daemon := func() error {
		d, err := dc.timed("daemon.request", root, c.daemon)
		if err != nil {
			return fmt.Errorf("daemon request: %w", err)
		}
		viaChild = append(viaChild, d)
		return nil
	}
	encode := step{"mdesclient.encode", func() (err error) {
		body, err = json.Marshal(&mdesclient.ScheduleRequest{Blocks: wire})
		return err
	}}
	decode := step{"server.decode", func() (err error) { req, err = server.ParseScheduleRequest(body); return err }}
	toBlocks := step{"server.to_blocks", func() error { blocks = server.ToBlocks(req); return nil }}
	p1 := step{"engine.schedule_blocks.p1", func() (err error) { r1, _, err = eng.ScheduleBlocks(ctx, blocks, 1); return err }}
	p2 := step{"engine.schedule_blocks.p2", func() (err error) { r2, _, err = eng.ScheduleBlocks(ctx, blocks, 2); return err }}
	// The fan-out's own cost: the same number of blocks, all empty.
	dispatch := step{"engine.dispatch", func() (err error) { _, _, err = eng.ScheduleBlocks(ctx, empty(len(blocks)), 1); return err }}
	oneByOne := step{"sched.blocks", func() error {
		for i, b := range blocks {
			if _, err := dc.timed("sched.schedule_block", root, func() (err error) { results[i], err = s.ScheduleBlock(b); return err }); err != nil {
				return err
			}
		}
		return nil
	}}
	respEncode := step{"server.encode", func() error {
		resp := mdesclient.ScheduleResponse{Fingerprint: c.d.fingerprint, Results: make([]mdesclient.BlockResult, len(r1))}
		var total stats.Counters
		for i, r := range r1 {
			resp.Results[i] = mdesclient.BlockResult{Issue: r.Issue, Length: r.Length}
			total.Add(r.Counters)
		}
		resp.Counters = mdesclient.Counters(total)
		respBody.Reset()
		return json.NewEncoder(&respBody).Encode(&resp)
	}}
	respDecode := step{"mdesclient.decode", func() error {
		return json.NewDecoder(bytes.NewReader(respBody.Bytes())).Decode(&decoded)
	}}
	transport := step{"server.transport", func() error { return c.transport(body, respBody.Bytes()) }}
	fixed := step{"server.fixed", func() error {
		d, err := c.fixed()
		took["server.fixed.net"] = int64(d)
		return err
	}}

	tracedP1 := step{"trace.schedule_blocks.p1", func() (err error) { _, _, err = traced.ScheduleBlocks(ctx, blocks, 1); return err }}
	// analyse builds each block's graph, computes its heights and replays
	// its recorded attempt stream into the probe layer.
	analyse := func() error {
		records := make([]*mdes.TraceRecord, len(blocks))
		for _, rec := range ring.Snapshot() {
			records[rec.Block] = rec
		}
		tm := mdesTiming{m: c.d.compiled}
		for i, b := range blocks {
			if records[i] == nil {
				return fmt.Errorf("block %d: no trace record", i)
			}
			var g *ir.Graph
			id := dc.log.begin("ir.build", root)
			if cx.PP != nil {
				g = builder.Build(b, tm)
			} else {
				g = ir.BuildGraphTiming(b, tm)
			}
			dc.log.end(id)
			dc.timed("sched.height", root, func() error { g.Height(tm.Latency); return nil })
			for _, e := range g.Succs {
				dc.edges += int64(len(e))
			}
			if err := dc.replay(rx, c.d.compiled, b, records[i], root); err != nil {
				return fmt.Errorf("block %d: %w", i, err)
			}
		}
		return nil
	}

	// The stages are timed between two end-to-end measurements, whose
	// mean is the end-to-end time: a host that speeds up or slows down
	// across the decomposition moves both sides alike.
	var stages []string
	if c.request != nil {
		stages = []string{"mdesclient.encode", "server.decode", "server.to_blocks", "engine.schedule_blocks.p1",
			"server.encode", "mdesclient.decode", "server.transport", "server.fixed.net"}
		gc := debug.SetGCPercent(-1)
		runtime.GC()
		err = daemon()
		if err == nil {
			err = end()
		}
		if err == nil {
			err = run(encode, decode, toBlocks, p1, respEncode, respDecode, transport, fixed)
		}
		if err == nil {
			err = end()
		}
		if err == nil {
			err = daemon()
		}
		if err == nil {
			err = run(p2, dispatch, oneByOne, tracedP1)
		}
		if err == nil {
			err = analyse()
		}
		debug.SetGCPercent(gc)
		runtime.GC()
	} else {
		stages = []string{"engine.dispatch", "sched.blocks"}
		err = run(encode, decode, toBlocks, p2)
		if err == nil {
			procs := runtime.GOMAXPROCS(1)
			gc := debug.SetGCPercent(-1)
			runtime.GC()
			err = end()
			if err == nil {
				err = run(dispatch, oneByOne)
			}
			if err == nil {
				err = end()
			}
			if err == nil {
				err = run(tracedP1)
			}
			if err == nil {
				err = analyse()
			}
			debug.SetGCPercent(gc)
			runtime.GOMAXPROCS(procs)
		}
		if err == nil {
			err = run(respEncode, respDecode)
		}
		if len(e2e) > 0 {
			took["engine.schedule_blocks.p1"] = e2e[0]
		}
	}
	if err != nil {
		return err
	}

	if !sameResults(r1, c.ref) || !sameResults(r2, c.ref) || !sameResults(results, c.ref) ||
		!sameWire(&decoded, c.ref, wireTotal(c.ref)) {
		return fmt.Errorf("decomposed schedules differ from the reference")
	}
	own := took["engine.schedule_blocks.p2"]
	if c.par == 1 {
		own = took["engine.schedule_blocks.p1"]
	}
	dc.par1 += took["engine.schedule_blocks.p1"]
	dc.par2 += took["engine.schedule_blocks.p2"]
	dc.traced += took["trace.schedule_blocks.p1"]
	dc.sched += own
	var sum int64
	for _, name := range stages {
		sum += took[name]
	}
	mid := (e2e[0] + e2e[1]) / 2
	dc.unaccountedShare = append(dc.unaccountedShare, float64(mid-sum)/float64(mid))
	if c.request != nil {
		child := (viaChild[0] + viaChild[1]) / 2
		dc.httpOther = append(dc.httpOther, float64(child-sum+took["server.transport"]+took["server.fixed.net"])/1e6)
		dc.process = append(dc.process, float64(child-mid)/1e6)
		dc.fixedNs += took["server.fixed.net"]
	}
	dc.ops += int64(countOps(blocks))
	dc.bytes += int64(len(body))
	dc.respBytes += int64(respBody.Len())
	dc.calls++
	return nil
}

// replay re-issues one block's recorded attempt stream against a fresh
// context, timing each Check and Reserve. The replayed counters must
// equal the recorded ones exactly.
func (dc *decomposer) replay(cx *resctx.Context, c *mdes.Compiled, b *ir.Block, rec *mdes.TraceRecord, parent int) error {
	id := dc.log.begin("probe.replay", parent)
	cx.Checker.Reset()
	var ctr stats.Counters
	var checkNs, reserveNs int64
	for _, ev := range rec.Events {
		if ev.Kind != "attempt" {
			continue
		}
		op := b.Ops[ev.Op]
		con := c.ConstraintFor(c.OpIndex[op.Opcode], op.Cascaded)
		t0 := now()
		sel, ok := cx.Check(con, ev.Cycle, &ctr)
		t1 := now()
		checkNs += t1 - t0 - dc.clock
		if ok != ev.OK {
			dc.log.end(id)
			return fmt.Errorf("replayed attempt of op %d at cycle %d: ok=%v, recorded %v", ev.Op, ev.Cycle, ok, ev.OK)
		}
		if ok {
			t2 := now()
			cx.Reserve(sel)
			reserveNs += now() - t2 - dc.clock
		}
	}
	dc.log.end(id)
	start := dc.log.spans[id].Start
	dc.log.add("probe.check", id, start, checkNs)
	dc.log.add("probe.reserve", id, start+checkNs, reserveNs)
	if ctr != rec.Counters {
		return fmt.Errorf("replayed counters %+v differ from recorded %+v", ctr, rec.Counters)
	}
	return nil
}

// describe times the description path one upload takes, in process:
// parse and compile, optimize, a cold and a warm compiled-description
// cache load, an arena open and NewEngine. Each figure is the median of
// reps repetitions.
func (dc *decomposer) describe(d *desc, kind mdes.CheckerKind, dir string, reps int) (map[string]float64, error) {
	lvl, err := cli.ParseLevel(d.level)
	if err != nil {
		return nil, err
	}
	samples := map[string][]float64{}
	for r := 0; r < reps; r++ {
		cacheDir := filepath.Join(dir, fmt.Sprintf("describe-%s-%d", d.machine, r))
		var (
			c     *mdes.Compiled
			arena []byte
		)
		root := dc.log.begin("describe", -1)
		steps := []struct {
			name string
			f    func() error
		}{
			{"translator.load", func() error {
				m, err := mdes.Load(string(d.machine)+".mdes", d.source)
				if err == nil {
					c = mdes.Compile(m, mdes.FormAndOr)
				}
				return err
			}},
			{"translator.optimize", func() error { mdes.Optimize(c, lvl); return nil }},
			{"descache.cold_load", func() (err error) {
				_, err = mdes.LoadCached("upload.mdes", d.source, mdes.FormAndOr, lvl, cacheDir)
				return err
			}},
			{"descache.warm_load", func() (err error) {
				_, err = mdes.LoadCached("upload.mdes", d.source, mdes.FormAndOr, lvl, cacheDir)
				return err
			}},
			{"arena.encode", func() (err error) { arena, err = mdes.EncodeArena(c); return err }},
			{"descache.arena_open", func() error {
				a, err := mdes.OpenArena(arena)
				if err == nil {
					a.FrozenMDES()
				}
				return err
			}},
			{"engine.new", func() error { _, err := mdes.NewEngine(c, mdes.WithChecker(kind)); return err }},
		}
		for _, st := range steps {
			d, err := dc.timed(st.name, root, st.f)
			if err != nil {
				dc.log.end(root)
				return nil, fmt.Errorf("%s: %w", st.name, err)
			}
			samples[st.name] = append(samples[st.name], float64(d)/1e6)
		}
		dc.log.end(root)
		if err := os.RemoveAll(cacheDir); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out, nil
}

// metrics turns the decomposition into per-layer figures, per traced
// call.
func (dc *decomposer) metrics() map[string]float64 {
	self := dc.log.selfTimes()
	calls := float64(dc.calls)
	ms := func(name string) float64 { return float64(self[name]) / 1e6 / calls }
	m := map[string]float64{
		"mdesclient.encode_ms":       ms("mdesclient.encode"),
		"mdesclient.decode_ms":       ms("mdesclient.decode"),
		"server.transport_ms":        ms("server.transport"),
		"server.fixed_ms":            float64(dc.fixedNs) / 1e6 / calls,
		"engine.dispatch_ms":         ms("engine.dispatch"),
		"server.decode_ms":           ms("server.decode"),
		"server.to_blocks_ms":        ms("server.to_blocks"),
		"server.encode_ms":           ms("server.encode"),
		"engine.schedule_blocks_ms":  float64(dc.sched) / 1e6 / calls,
		"engine.parallel_efficiency": float64(dc.par1) / (2 * float64(dc.par2)),
		"ir.build_ms":                ms("ir.build"),
		"ir.edges_per_op":            float64(dc.edges) / float64(dc.ops),
		"sched.height_ms":            ms("sched.height"),
		"sched.schedule_block_ms":    ms("sched.schedule_block"),
		"probe.check_ms":             ms("probe.check"),
		"probe.reserve_ms":           ms("probe.reserve"),
		"server.decode_mb_per_s":     float64(dc.bytes) / (1 << 20) / (float64(self["server.decode"]) / 1e9),
		// The gap in blocks per second between scheduling with the ring
		// tracer and without it, on the same blocks at parallelism 1.
		"trace.overhead_frac": 1 - float64(dc.par1)/float64(dc.traced),
		// Each decomposition's two sides are timed moments apart, so a
		// slow spell of a shared host tends to hit both; the median keeps
		// a spell that hit only one side from deciding the figure.
		"trace.unaccounted_frac": median(dc.unaccountedShare),
	}
	m["sched.loop_self_ms"] = m["sched.schedule_block_ms"] - m["ir.build_ms"] - m["sched.height_ms"] - m["probe.check_ms"] - m["probe.reserve_ms"]
	return m
}

// empty returns n blocks with no operations.
func empty(n int) []*ir.Block {
	out := make([]*ir.Block, n)
	for i := range out {
		out[i] = &ir.Block{}
	}
	return out
}
