package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdes"
	"mdes/internal/ir"
	"mdes/internal/machines"
	"mdes/internal/server"
	"mdes/sdk/mdesclient"
)

// serveChecker is the daemon's default backend, which the traced run
// uses for its in-process re-execution of the server layers.
const serveChecker = mdes.CheckerProbePlan

// mixedRate is the serve-mixed arrival rate in operations per second:
// about half of the 650/s the daemon sustained for this mix on a 2-CPU
// Xeon, where 900/s built an unbounded backlog.
const mixedRate = 300

// tenantReqs is one tenant's request pool and references, keyed by the
// description fingerprint that may legitimately serve them.
type tenantReqs struct {
	name   string
	blocks [][]*ir.Block
	wire   [][]mdesclient.Block
	ops    []int
	refs   map[string][][]*mdes.Result
	totals map[string][]mdesclient.Counters
	descs  []*desc
}

// verify checks one response against the reference of the fingerprint
// that served it.
func (t *tenantReqs) verify(i int, resp *mdesclient.ScheduleResponse) error {
	refs, ok := t.refs[resp.Fingerprint]
	if !ok {
		return fmt.Errorf("%w: tenant %s served by unknown fingerprint %s", errMismatch, t.name, resp.Fingerprint)
	}
	if !sameWire(resp, refs[i], t.totals[resp.Fingerprint][i]) {
		return fmt.Errorf("%w: tenant %s request %d", errMismatch, t.name, i)
	}
	return nil
}

// addDesc computes the references of every request under d, which must
// produce the same schedules as every description already added.
func (t *tenantReqs) addDesc(d *desc) error {
	if t.refs == nil {
		t.refs, t.totals = map[string][][]*mdes.Result{}, map[string][]mdesclient.Counters{}
	}
	if _, ok := t.refs[d.fingerprint]; ok {
		return nil
	}
	others := make([][][]*mdes.Result, 0, len(t.refs))
	for _, refs := range t.refs {
		others = append(others, refs)
	}
	for i, b := range t.blocks {
		ref, err := reference(d, b)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		for _, other := range others {
			for bi := range ref {
				if !sameInts(ref[bi].Issue, other[i][bi].Issue) {
					return fmt.Errorf("tenant %s request %d block %d: schedule depends on the optimization level", t.name, i, bi)
				}
			}
		}
		t.refs[d.fingerprint] = append(t.refs[d.fingerprint], ref)
		t.totals[d.fingerprint] = append(t.totals[d.fingerprint], wireTotal(ref))
	}
	t.descs = append(t.descs, d)
	return nil
}

func (t *tenantReqs) add(blocks []*ir.Block) {
	t.blocks = append(t.blocks, blocks)
	t.wire = append(t.wire, server.FromIR(blocks))
	t.ops = append(t.ops, countOps(blocks))
}

// upload registers a built-in description with a tenant and checks the
// fingerprint the daemon reports.
func upload(ctx context.Context, cl *mdesclient.Client, tenant string, m machines.Name, level string, activate bool) (string, error) {
	src, err := machines.Source(m)
	if err != nil {
		return "", err
	}
	resp, err := cl.Upload(ctx, tenant, mdesclient.UploadRequest{Source: src, Form: "andor", Level: level, Activate: activate})
	if err != nil {
		return "", fmt.Errorf("upload %s/%s: %w", tenant, level, err)
	}
	return resp.Fingerprint, nil
}

// serveSetup is one set-up of a serve workload: a fresh daemon with its
// tenants uploaded cold and then warm, and the request inputs generated.
type serveSetup struct {
	d       *daemon
	tenants []*tenantReqs
	// fps maps tenant/level to the fingerprint the daemon reported.
	fps map[string]string
}

// serveSpec describes a serve workload's tenants and inputs. Each tenant
// is named after the machine it serves.
type serveSpec struct {
	tenants []machines.Name
	// swapTenant is the K5 tenant whose description the window swaps
	// between "full" and swapLevel. When it is not one of tenants, no
	// schedule request goes to it.
	swapTenant string
	requests   int
	ops        int
}

// swapServes reports whether schedule requests go to the swap tenant, so
// they may be served at either level.
func (spec serveSpec) swapServes() bool {
	for _, m := range spec.tenants {
		if string(m) == spec.swapTenant {
			return true
		}
	}
	return false
}

// uploaded returns every tenant the daemon holds a description for, in
// upload order, with the machine each serves.
func (spec serveSpec) uploaded() ([]string, map[string]machines.Name) {
	names := []string{}
	ms := map[string]machines.Name{}
	for _, m := range spec.tenants {
		names = append(names, string(m))
		ms[string(m)] = m
	}
	if !spec.swapServes() {
		names = append(names, spec.swapTenant)
		ms[spec.swapTenant] = machines.K5
	}
	return names, ms
}

// setupServe starts a daemon, uploads each tenant's description cold
// and then again warm, and generates the inputs.
func setupServe(ctx context.Context, o *options, spec serveSpec, rep int) (*serveSetup, error) {
	d, err := startDaemon(ctx, o.mdesd, filepath.Join(o.work, fmt.Sprintf("cache-%d", rep)))
	if err != nil {
		return nil, err
	}
	s := &serveSetup{d: d, fps: map[string]string{}}
	fail := func(err error) (*serveSetup, error) {
		d.stop()
		return nil, err
	}
	cl := newClient(d.base, newTransport())
	tenants, ms := spec.uploaded()
	for _, tenant := range tenants {
		fp, err := upload(ctx, cl, tenant, ms[tenant], "full", true)
		if err != nil {
			return fail(err)
		}
		s.fps[tenant+"/full"] = fp
	}
	fp, err := upload(ctx, cl, spec.swapTenant, machines.K5, swapLevel, false)
	if err != nil {
		return fail(err)
	}
	s.fps[spec.swapTenant+"/"+swapLevel] = fp
	for _, tenant := range tenants {
		if _, err := upload(ctx, cl, tenant, ms[tenant], "full", true); err != nil {
			return fail(err)
		}
	}
	for ti, m := range spec.tenants {
		t := &tenantReqs{name: string(m)}
		for i := 0; i < spec.requests; i++ {
			b, err := program(m, spec.ops, subSeed(o.seed, 3, int64(ti), int64(i)))
			if err != nil {
				return fail(err)
			}
			t.add(b)
		}
		s.tenants = append(s.tenants, t)
	}
	return s, nil
}

// prepareServe runs the set-up setupReps times, keeping the last daemon
// running, checks every fingerprint the daemon reported against a local
// compile, and computes the references of every input under every
// description the daemon may serve it with.
func prepareServe(ctx context.Context, o *options, st *stamp, spec serveSpec) (*serveSetup, []float64, error) {
	var setups []float64
	var s *serveSetup
	for rep := 0; rep < o.setupReps(); rep++ {
		runtime.GC()
		t0 := time.Now()
		cur, err := setupServe(ctx, o, spec, rep)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < o.setupReps()-1 {
			cur.d.stop()
		} else {
			s = cur
		}
	}
	fail := func(err error) (*serveSetup, []float64, error) {
		s.d.stop()
		return nil, nil, err
	}
	_, ms := spec.uploaded()
	local := map[string]*desc{}
	for key := range s.fps {
		tenant, lvl, _ := strings.Cut(key, "/")
		m := ms[tenant]
		d, ok := local[string(m)+"/"+lvl]
		if !ok {
			var err error
			if d, err = buildDesc(m, lvl); err != nil {
				return fail(err)
			}
			local[string(m)+"/"+lvl] = d
		}
		if d.fingerprint != s.fps[key] {
			return fail(fmt.Errorf("%w: daemon fingerprint %s for %s, local compile %s", errMismatch, s.fps[key], key, d.fingerprint))
		}
		st.Fingerprints[key] = d.fingerprint
	}
	for _, t := range s.tenants {
		levels := []string{"full"}
		if t.name == spec.swapTenant {
			levels = append(levels, swapLevel)
		}
		for _, lvl := range levels {
			if err := t.addDesc(local[t.name+"/"+lvl]); err != nil {
				return fail(err)
			}
		}
	}
	return s, setups, nil
}

// serveDigest folds every tenant's references into the workload digest
// and the probe counts, at the "full" level.
func serveDigest(s *serveSetup) (string, probeCounts) {
	dg := newDigest()
	var c probeCounts
	for _, t := range s.tenants {
		for _, ref := range t.refs[t.descs[0].fingerprint] {
			dg.add(ref)
			c.add(ref)
		}
	}
	return dg.String(), c
}

// swapLevel is the level a workload swaps the last tenant to and back
// from "full". Schedules are level-invariant; counters are not.
const swapLevel = "none"

// swap re-uploads and activates a tenant's description: the k-th swap
// of a run goes to swapLevel when k is even and back to "full" when odd.
// The daemon must answer with the fingerprint it reported at set-up.
func swap(ctx context.Context, cl *mdesclient.Client, tenant, src string, k int, fps map[string]string) error {
	level := swapLevel
	if k%2 == 1 {
		level = "full"
	}
	resp, err := cl.Upload(ctx, tenant, mdesclient.UploadRequest{Source: src, Form: "andor", Level: level, Activate: true})
	if err != nil {
		return err
	}
	if !resp.Active || resp.Fingerprint != fps[tenant+"/"+level] {
		return fmt.Errorf("%w: upload %s/%s answered fingerprint %s", errMismatch, tenant, level, resp.Fingerprint)
	}
	return nil
}

// runServeBatch drives one K5 tenant with large requests from a closed
// loop of GOMAXPROCS clients.
func runServeBatch(ctx context.Context, o *options, st *stamp) (*outcome, error) {
	spec := serveSpec{tenants: []machines.Name{machines.K5}, swapTenant: "k5-swap", requests: batchRequests, ops: batchOps}
	s, setups, err := prepareServe(ctx, o, st, spec)
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	t := s.tenants[0]
	out := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
	dig, counts := serveDigest(s)
	if err := checkDigest(o, dig, out); err != nil {
		return nil, err
	}

	base := newTransport()
	cl := newClient(s.d.base, base)
	// Once a second of the window the first client swaps a second K5
	// tenant, which serves no requests, to the other level and back while
	// the second client holds off, so the swap is timed on an otherwise
	// idle daemon. Under full load its latency is mostly the wait for a
	// busy CPU, which moved its median by a fifth from run to run.
	src, err := machines.Source(machines.K5)
	if err != nil {
		return nil, err
	}
	uploads := &sideUploads{every: time.Second, upload: func(k int) error { return swap(ctx, cl, spec.swapTenant, src, k, s.fps) }}
	var quiet sync.RWMutex

	var next atomic.Int64
	op := func(w, seg int) (int, int, error) {
		if uploads.due(w, seg) {
			quiet.Lock()
			defer quiet.Unlock()
			return 0, 0, uploads.run()
		}
		quiet.RLock()
		defer quiet.RUnlock()
		i := int(next.Add(1)-1) % len(t.wire)
		resp, err := cl.Schedule(ctx, t.name, t.wire[i])
		if err != nil {
			return 0, 0, err
		}
		if err := t.verify(i, resp); err != nil {
			return 0, 0, err
		}
		return len(t.wire[i]), t.ops[i], nil
	}
	clients := gomaxprocs()
	window := time.Duration(o.seconds) * time.Second
	hc := &http.Client{Transport: base, Timeout: 10 * time.Second}

	warm(ctx, clients, o.warmup(), op)
	before, err := scrape(ctx, hc, s.d.base, t.name)
	if err != nil {
		return nil, err
	}
	proc := startProcSampler(s.d.pid(), 20*time.Millisecond)
	stats := closedLoop(ctx, clients, 0, window, op)
	if err := proc.Stop(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fillEndToEnd(out, stats, proc, median(uploads.samples), median(setups))
	out.notes["upload_quartiles_ms"] = quartiles(uploads.samples)
	if !o.trace {
		return out, nil
	}
	after, err := scrape(ctx, hc, s.d.base, t.name)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["loadgen.lag_p99_ms"] = 0
	m["loadgen.backlog_max"] = 0
	return out, serveLayers(ctx, o, s, spec, out, stats, before, after, counts)
}

// servingOptions are the options beyond the backend that the daemon
// builds each tenant's engine with: a metrics registry, a flight recorder
// and a conflict profile.
func servingOptions(c *mdes.Compiled) []mdes.EngineOption {
	return []mdes.EngineOption{
		mdes.WithMetrics(mdes.NewMetrics(c)),
		mdes.WithFlight(mdes.NewFlightRecorder(mdes.FlightConfig{})),
		mdes.WithProfile(mdes.NewConflictProfile(c)),
	}
}

// serveLayers runs the traced decomposition for a serve workload and
// fills the per-layer metrics. Each distinct request is sent alone to the
// daemon's server running inside the benchmark, and then decomposed in
// the same process, its HTTP transport timed through an echo server; the
// request's wall time is what the stages must account for. The stages
// and that request share one process and one heap, and run with the
// collector off. The same request also goes to the mdesd child, through a byte-counting
// transport; what the child takes beyond the in-process server is
// server.process_ms. The swap tenant is set back to "full" first (an
// odd-numbered swap), so the daemon serves the description the
// decomposition runs.
func serveLayers(ctx context.Context, o *options, s *serveSetup, spec serveSpec, out *outcome, all *loopStats,
	before, after daemonCounters, counts probeCounts) error {
	src, err := machines.Source(machines.K5)
	if err != nil {
		return err
	}
	base := newTransport()
	if err := swap(ctx, newClient(s.d.base, base), spec.swapTenant, src, 1, s.fps); err != nil {
		return err
	}
	counting := &countingTransport{rt: base}
	cl := newClient(s.d.base, counting)
	// The in-process server has the child's configuration: mdesd's
	// defaults and a cache directory of its own.
	inproc, err := server.Start("127.0.0.1:0", server.Config{CacheDir: filepath.Join(o.work, "inprocess")})
	if err != nil {
		return err
	}
	defer inproc.Close()
	local := newClient("http://"+inproc.Addr, newTransport())
	for _, t := range s.tenants {
		d := t.descs[0]
		fp, err := upload(ctx, local, t.name, d.machine, d.level, true)
		if err != nil {
			return err
		}
		if fp != d.fingerprint {
			return fmt.Errorf("%w: in-process server fingerprint %s for %s, local compile %s", errMismatch, fp, t.name, d.fingerprint)
		}
	}
	echo, err := startEcho()
	if err != nil {
		return err
	}
	defer echo.close()
	echoClient := &http.Client{Transport: newTransport(), Timeout: 60 * time.Second}
	transport := func(req, resp []byte) error { return echo.roundTrip(echoClient, req, resp) }
	// fixed times the smallest request a tenant serves, one op, against
	// the in-process server and then through the echo server.
	fixed := func(t *tenantReqs) func() (time.Duration, error) {
		tiny := []mdesclient.Block{{Ops: t.wire[0][0].Ops[:1]}}
		return func() (time.Duration, error) {
			t0 := time.Now()
			resp, err := local.Schedule(ctx, t.name, tiny)
			served := time.Since(t0)
			if err != nil {
				return 0, err
			}
			req, err := json.Marshal(&mdesclient.ScheduleRequest{Blocks: tiny})
			if err != nil {
				return 0, err
			}
			body, err := json.Marshal(resp)
			if err != nil {
				return 0, err
			}
			t1 := time.Now()
			err = echo.roundTrip(echoClient, req, body)
			return served - time.Since(t1), err
		}
	}
	dc := newDecomposer()
	var descs []*desc
	for _, t := range s.tenants {
		descs = append(descs, t.descs[0])
	}
	for round := 0; round < tracedRounds; round++ {
		for _, t := range s.tenants {
			d := t.descs[0]
			fixed := fixed(t)
			for i := range t.blocks {
				send := func(via *mdesclient.Client) func() error {
					return func() error {
						resp, err := via.Schedule(ctx, t.name, t.wire[i])
						if err == nil && resp.Fingerprint != d.fingerprint {
							err = fmt.Errorf("%w: served by %s, want %s", errMismatch, resp.Fingerprint, d.fingerprint)
						}
						if err == nil {
							err = t.verify(i, resp)
						}
						return err
					}
				}
				c := tracedCall{d: d, kind: serveChecker, opts: servingOptions(d.compiled), par: 1, blocks: t.blocks[i], ref: t.refs[d.fingerprint][i],
					request: send(local), daemon: send(cl), transport: transport, fixed: fixed}
				if err := dc.call(c); err != nil {
					return fmt.Errorf("traced decomposition: %w", err)
				}
			}
		}
	}
	desc, err := describeAll(dc, descs, serveChecker, o)
	if err != nil {
		return err
	}
	m := out.metrics
	for k, v := range dc.metrics() {
		m[k] = v
	}
	for k, v := range desc {
		m[k] = v
	}
	reqs := float64(counting.requests.Load())
	m["loadgen.sent"] = float64(all.attempted)
	m["loadgen.samples"] = float64(len(all.lat))
	m["mdesclient.request_bytes"] = float64(counting.reqBytes.Load()) / reqs
	m["mdesclient.response_bytes"] = float64(counting.respBytes.Load()) / reqs
	m["server.http_other_ms"] = median(dc.httpOther)
	m["server.process_ms"] = median(dc.process)
	m["server.shed_429"] = after.shed429 - before.shed429
	m["server.shed_503"] = after.shed503 - before.shed503
	m["server.errors"] = after.errors - before.errors
	m["runtime.alloc_bytes_per_op"] = (after.totalAlloc - before.totalAlloc) / float64(all.ops)
	m["runtime.gc_cpu_frac"] = after.gcCPUFraction
	countMetrics(m, counts)
	return writeSpans(o, dc)
}

// runServeMixed drives four tenants, one per paper machine, with small
// requests from an open loop at mixedRate operations per second. About
// once a second the operation due is instead a re-upload of the K5
// tenant's description, alternating between two optimization levels.
func runServeMixed(ctx context.Context, o *options, st *stamp) (*outcome, error) {
	spec := serveSpec{tenants: paperMachines, swapTenant: string(machines.K5), requests: smallPerTenant, ops: smallOps}
	s, setups, err := prepareServe(ctx, o, st, spec)
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	out := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
	dig, counts := serveDigest(s)
	if err := checkDigest(o, dig, out); err != nil {
		return nil, err
	}
	swapSrc, err := machines.Source(machines.K5)
	if err != nil {
		return nil, err
	}

	base := newTransport()
	cl := newClient(s.d.base, base)
	window := time.Duration(o.seconds) * time.Second
	interval := time.Second / mixedRate
	start := time.Now().Add(50 * time.Millisecond)
	stats := &loopStats{start: start.Add(o.warmup()), seg: window / segments}
	n := int((o.warmup() + window) / interval)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	isUpload := func(i int) bool { return i%mixedRate == mixedRate/2 }

	hc := &http.Client{Transport: base, Timeout: 10 * time.Second}
	before, err := scrape(ctx, hc, s.d.base, spec.swapTenant)
	if err != nil {
		return nil, err
	}
	proc := startProcSampler(s.d.pid(), 20*time.Millisecond)
	recs := openLoop(ctx, start, interval, n, gomaxprocs(), func(i int) (int, int, error) {
		if isUpload(i) {
			return 0, 0, swap(ctx, cl, spec.swapTenant, swapSrc, i/mixedRate, s.fps)
		}
		t := s.tenants[i%len(s.tenants)]
		r := (i / len(s.tenants)) % len(t.wire)
		resp, err := cl.Schedule(ctx, t.name, t.wire[r])
		if err != nil {
			return 0, 0, err
		}
		if err := t.verify(r, resp); err != nil {
			return 0, 0, err
		}
		return len(t.wire[r]), t.ops[r], nil
	})
	if err := proc.Stop(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var uploads, lags []float64
	backlog := 0
	for i, r := range recs {
		if due(i).Before(stats.start) {
			continue
		}
		lags = append(lags, ms(r.lag))
		if r.backlog > backlog {
			backlog = r.backlog
		}
		if isUpload(i) {
			stats.attempted++
			if r.err != nil {
				stats.failed++
				stats.lastErr = r.err
			} else {
				uploads = append(uploads, ms(r.latency))
			}
			continue
		}
		stats.record(due(i).Add(r.latency), r.latency, r.blocks, r.ops, r.err)
	}
	fillEndToEnd(out, stats, proc, median(uploads), median(setups))
	out.notes["uploads"] = len(uploads)
	if !o.trace {
		return out, nil
	}
	after, err := scrape(ctx, hc, s.d.base, spec.swapTenant)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["loadgen.lag_p99_ms"] = percentile(sortedCopy(lags), 99)
	m["loadgen.backlog_max"] = float64(backlog)
	return out, serveLayers(ctx, o, s, spec, out, stats, before, after, counts)
}
