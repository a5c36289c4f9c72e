// Package sched implements the MDES-driven multi-platform list scheduler
// used throughout the paper's evaluation (§4): a forward, cycle-driven list
// scheduler with latency-weighted critical-path priority, instrumented to
// count scheduling attempts, reservation-table options checked, and
// resource checks, and to collect the per-attempt options-checked
// distribution of Figure 2.
package sched

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"mdes/internal/check"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/obs"
	"mdes/internal/obs/flight"
	"mdes/internal/resctx"
	"mdes/internal/stats"
)

// Result is the outcome of scheduling one block.
type Result struct {
	// Issue[i] is the cycle operation i was issued.
	Issue []int
	// Length is the schedule length in cycles (last issue + 1).
	Length int
	// Counters accumulates attempts/options/checks for the block.
	Counters stats.Counters
}

// Scheduler schedules blocks for one compiled machine description.
//
// The compiled description is shared, immutable data (see
// lowlevel.MDES.Freeze); all mutable scheduling state lives in the
// borrowed resctx.Context. A Scheduler therefore must not be used from
// more than one goroutine at a time, but any number of Schedulers — each
// with its own borrowed Context — may drive the same compiled MDES
// concurrently (mdes.Engine.ScheduleBlocks is the fan-out entry point).
type Scheduler struct {
	mdes *lowlevel.MDES
	cx   *resctx.Context
	// OptionsHist, when non-nil, receives one sample per scheduling
	// attempt: the number of options checked during that attempt
	// (Figure 2's distribution).
	OptionsHist *stats.Histogram
	// OnAttempt, when non-nil, is called after every scheduling attempt
	// with the operation, the options checked during the attempt, and
	// whether it succeeded; the experiment harness uses it to attribute
	// attempts to option-count classes (Tables 1-4).
	OnAttempt func(op *ir.Operation, optionsChecked int64, ok bool)
	// SelfCheck, when set, re-validates every schedule against the
	// dependence graph (used by tests).
	SelfCheck bool
	// Tracer, when non-nil, receives one structured record per scheduled
	// block: every issue attempt with its candidate cycle and chosen
	// option, conflict attribution naming the blocking resource, and the
	// block's final length and counters. A nil Tracer costs one pointer
	// comparison per block.
	Tracer obs.Tracer
	// BlockID labels the next block's trace record;
	// mdes.Engine.ScheduleBlocks sets it to the block's index within the
	// batch. The scheduler never modifies it.
	BlockID int64
	// Ctx, when non-nil, cancels scheduling inside a block: the cycle loop
	// polls Ctx.Done() without blocking once every 1024 attempts and, once
	// it is closed, fails the block with Ctx.Err().
	// mdes.Engine.ScheduleBlocks sets it to the batch's context.
	Ctx context.Context
}

// New returns a scheduler for the given compiled MDES, backed by a
// standalone context. For concurrent use over a shared description,
// borrow per-goroutine contexts from a resctx.Pool and use
// NewWithContext.
func New(m *lowlevel.MDES) *Scheduler {
	return NewWithContext(m, resctx.New(m.NumResources))
}

// NewWithContext returns a scheduler over the shared compiled description
// using the borrowed context for all mutable scheduling state. Per-block
// counters are also accumulated into the context, so pooled contexts
// aggregate a service-wide total on release.
func NewWithContext(m *lowlevel.MDES, cx *resctx.Context) *Scheduler {
	return &Scheduler{mdes: m, cx: cx}
}

// Context returns the scheduler's borrowed context.
func (s *Scheduler) Context() *resctx.Context { return s.cx }

// MDES returns the machine description the scheduler drives.
func (s *Scheduler) MDES() *lowlevel.MDES { return s.mdes }

// attempt performs one instrumented Check of operation i at cycle: the
// paper's counters always (into the block's result), the OptionsHist and
// OnAttempt hooks when set, per-phase/per-class observability metrics
// when the borrowed context carries an obs.Local, conflict-attribution
// profiling when it carries a profile.Local, and a trace event when the
// block is traced. It returns the selection and whether the attempt
// succeeded. With observability disabled (no hooks, nil Local, nil Prof,
// no trace) the extra cost is a few nil comparisons and no allocations.
func (s *Scheduler) attempt(k *block, i int, con *lowlevel.Constraint, cycle int) (check.Selection, bool) {
	c := &k.res.Counters
	bt := k.bt
	local := s.cx.Obs
	prof := s.cx.Prof
	var t0 time.Time
	timed := false
	if local != nil {
		// Timestamps are sampled (obs.TimestampPeriod): most attempts skip
		// both clock readings, which dominated the enabled-metrics cost.
		if timed = local.SampleTime(); timed {
			t0 = time.Now()
		}
	}
	beforeOpts := c.OptionsChecked
	beforeChecks := c.ResourceChecks
	sel, ok := s.cx.Check(con, cycle, c)
	opts := c.OptionsChecked - beforeOpts
	if s.OptionsHist != nil {
		s.OptionsHist.Observe(int(opts))
	}
	if s.OnAttempt != nil {
		s.OnAttempt(k.g.Block.Ops[i], opts, ok)
	}
	if local == nil && bt == nil && prof == nil {
		return sel, ok
	}
	if local != nil {
		ns := int64(-1)
		if timed {
			ns = time.Since(t0).Nanoseconds()
		}
		// con.Index is the class key ConstraintIndexFor would look up: every
		// caller selected con through ConstraintFor on the same operation.
		local.Attempt(k.phase, con.Index,
			opts, c.ResourceChecks-beforeChecks, ns, ok)
	}
	if !ok {
		if prof != nil {
			// One attribution walk serves both the profile (tree + resource)
			// and, when no trace wants provenance too, the metrics registry.
			ti, res := s.cx.BlockingTreeRes(con, cycle)
			prof.Conflict(con.Index, ti, res)
			if local != nil && bt == nil && res >= 0 {
				local.ConflictAt(res)
			}
		}
		if bt == nil {
			if local != nil && prof == nil {
				// Metrics-only attribution needs just the blocking resource,
				// not the provenance a trace record carries.
				if res := s.cx.BlockingRes(con, cycle); res >= 0 {
					local.ConflictAt(res)
				}
			}
		} else if conf, found := s.cx.Explain(con, cycle); found {
			if local != nil {
				local.ConflictAt(conf.Res)
			}
			bt.Conflict(i, k.g.Block.Ops[i].Opcode, cycle, s.mdes.ResourceNames[conf.Res], conf.Time, conf.Src)
		}
	} else if prof != nil {
		prof.Success(con.Index, sel.Chosen)
	}
	if bt != nil {
		choice := 0
		if ok && len(sel.Chosen) > 0 {
			choice = sel.Chosen[0]
		}
		bt.Attempt(i, k.g.Block.Ops[i].Opcode, cycle, int(opts), choice, ok)
	}
	return sel, ok
}

// flightRecord appends one flight entry for a finished block (length < 0
// marks a failed schedule). The per-block cost with the recorder on is
// one clock reading plus a fixed-size ring store — the always-on budget
// the flight-recorder overhead gate at the repository root enforces.
func (s *Scheduler) flightRecord(k *block, length int) {
	if k.ft == 0 {
		return
	}
	c := &k.res.Counters
	e := flight.Entry{
		Block:      s.BlockID,
		Phase:      k.phase,
		Ops:        int32(len(k.res.Issue)),
		Length:     int32(length),
		WallNs:     flight.Nanotime() - k.ft,
		Attempts:   c.Attempts,
		Options:    c.OptionsChecked,
		Checks:     c.ResourceChecks,
		Conflicts:  c.Conflicts,
		Backtracks: c.Backtracks,
	}
	s.cx.Flight.Record(&e)
}

// Timing adapts the compiled MDES's operand-level distances (latency,
// source sample time, bypasses) to the IR graph builder. Opcodes the
// description does not define get distance and latency 1.
type Timing struct{ MDES *lowlevel.MDES }

func (t Timing) FlowDist(producer, consumer *ir.Operation) int {
	pi, pok := t.MDES.OpIndex[producer.Opcode]
	ci, cok := t.MDES.OpIndex[consumer.Opcode]
	if !pok || !cok {
		return 1
	}
	return t.MDES.FlowDistance(pi, ci)
}

func (t Timing) Latency(opcode string) int {
	if idx, ok := t.MDES.OpIndex[opcode]; ok {
		return t.MDES.Operations[idx].Latency
	}
	return 1
}

// flatTiming resolves flow distances through operation indices hoisted
// once per block, instead of two opcode-map lookups per flow edge. It is
// only valid for renumbered blocks (op.ID == position), which begin
// verifies before using it.
type flatTiming struct {
	Timing
	opIdxs []int
}

func (t flatTiming) FlowDist(producer, consumer *ir.Operation) int {
	return t.MDES.FlowDistance(t.opIdxs[producer.ID], t.opIdxs[consumer.ID])
}

// block is one block in flight through a scheduler: its dependence
// graph, its operations' opcode indices, the trace and flight handles,
// and the result under construction.
type block struct {
	g      *ir.Graph
	opIdxs []int
	phase  obs.Phase
	bt     *obs.BlockTrace
	ft     int64
	res    *Result
}

// begin is every scheduler's prologue for a non-empty block: opcode
// indices hoisted once (unknown opcodes are an error), the dependence
// graph built by the context's reusable builder, the trace and flight
// entry opened and the checker reset. Per-block scratch is carved from
// the context's arena, which begin rewinds. Schedulers other than the
// forward list scheduler probe cycles out of order, so begin refuses
// them on monotonic-only backends.
func (s *Scheduler) begin(b *ir.Block, phase obs.Phase) (block, error) {
	n := len(b.Ops)
	ar := &s.cx.Arena
	ar.Reset()
	opIdxs := ar.Ints(n)
	renumbered := true
	for i, op := range b.Ops {
		idx, ok := s.mdes.OpIndex[op.Opcode]
		if !ok {
			return block{}, fmt.Errorf("sched: opcode %q not in MDES %s", op.Opcode, s.mdes.MachineName)
		}
		opIdxs[i] = idx
		if op.ID != i {
			renumbered = false
		}
	}
	if caps := s.cx.Checker.Capabilities(); phase != obs.PhaseList && caps.MonotonicOnly {
		return block{}, fmt.Errorf("sched: %s scheduling needs random-access probes; the %s backend is monotonic-only", phase, caps.Backend)
	}
	var tm ir.Timing = Timing{MDES: s.mdes}
	if renumbered {
		tm = flatTiming{Timing: Timing{MDES: s.mdes}, opIdxs: opIdxs}
	}
	k := block{
		g:      s.cx.Builder.Build(b, tm),
		opIdxs: opIdxs,
		phase:  phase,
		res:    &Result{Issue: make([]int, n)},
	}
	if s.cx.Flight != nil {
		// The raw runtime clock is deliberate: the clock pair is the
		// dominant per-block flight cost, and the always-on overhead gate
		// at the repository root leaves no room for time.Time round-trips.
		k.ft = flight.Nanotime()
	}
	if s.Tracer != nil {
		k.bt = s.Tracer.StartBlock(s.BlockID, s.mdes.MachineName, n)
	}
	s.cx.Checker.Reset()
	return k, nil
}

// finish is every scheduler's success epilogue: the schedule length from
// the issue cycles, the optional self-check, the trace record and flight
// entry closed, and the block's counters folded into the context.
func (s *Scheduler) finish(k *block) (*Result, error) {
	res := k.res
	for _, c := range res.Issue {
		if c+1 > res.Length {
			res.Length = c + 1
		}
	}
	if s.SelfCheck {
		if err := k.g.CheckSchedule(res.Issue); err != nil {
			return s.fail(k, err)
		}
	}
	if k.bt != nil {
		k.bt.Finish(res.Length, res.Counters)
	}
	s.flightRecord(k, res.Length)
	s.cx.Counters.Add(res.Counters)
	return res, nil
}

// fail is every scheduler's failure epilogue: the trace record and
// flight entry close with length -1, and err is returned.
func (s *Scheduler) fail(k *block, err error) (*Result, error) {
	if k.bt != nil {
		k.bt.Finish(-1, k.res.Counters)
	}
	s.flightRecord(k, -1)
	return nil, err
}

// height returns each operation's latency-weighted longest path to a
// DAG sink — the forward list-scheduling priority (Graph.Height without
// the per-op opcode lookups), carved from the arena.
func (s *Scheduler) height(k *block) []int {
	ops := s.mdes.Operations
	h := s.cx.Arena.Ints(len(k.opIdxs))
	for i := len(h) - 1; i >= 0; i-- {
		best := ops[k.opIdxs[i]].Latency
		for _, e := range k.g.Succs[i] {
			if v := e.MinDist + h[e.To]; v > best {
				best = v
			}
		}
		h[i] = best
	}
	return h
}

// ScheduleBlock list-schedules one block and returns the result.
//
// The algorithm is classic forward cycle-driven list scheduling: at each
// cycle, ready operations (all predecessors scheduled and dependence
// distances satisfied) are attempted in priority order (critical-path
// height, ties by source order); each attempt checks the operation's
// reservation constraint against the context's checker and either
// reserves its resources or leaves the operation for a later cycle. One
// Check call is one "scheduling attempt" in the paper's accounting.
// Every checker backend runs this one body.
func (s *Scheduler) ScheduleBlock(b *ir.Block) (*Result, error) {
	n := len(b.Ops)
	if n == 0 {
		return &Result{Issue: []int{}}, nil
	}
	k, err := s.begin(b, obs.PhaseList)
	if err != nil {
		return nil, err
	}
	ar := &s.cx.Arena
	height := s.height(&k)
	npreds := ar.Ints(n)
	for i, p := range k.g.Preds {
		npreds[i] = len(p)
	}
	order := ar.Ints(n)
	for i := range order {
		order[i] = i
	}
	sortByHeight(order, ar.Ints(n), height)
	if err := s.cycles(&k, order, npreds, k.res.Issue); err != nil {
		return s.fail(&k, err)
	}
	return s.finish(&k)
}

// cycles is the cycle-driven list-scheduling loop the forward and
// backward schedulers share. order holds the operations in priority
// order and wait[i] counts operation i's unplaced dependence neighbours:
// predecessors going forward; successors in the backward phase, which
// probes at -c. An operation placed at cycle c gets at[i] = c.
//
// The loop keeps a ready list instead of rescanning every unscheduled
// operation each cycle: one min-heap of the operations whose neighbours
// are all placed, keyed by the cycle the operation is next due and then
// by its rank, its position in order. It pops the due operations of a
// cycle in rank order. A failed operation is due again next cycle. One
// released by a success at rank r is due at its earliest start if that is
// later; otherwise this cycle if it ranks after r — a scan in priority
// order would still reach it — and next cycle if it ranks before. Every
// key pushed for the current cycle exceeds the key just popped, so the
// loop attempts exactly the (op, cycle) pairs, in exactly the order, of a
// scan of every operation at every cycle. Between cycles it jumps to the
// next due cycle, clamped so the no-progress error reports the same cycle
// the scan would.
func (s *Scheduler) cycles(k *block, order, wait, at []int) error {
	ops := k.g.Block.Ops
	adj, backward, sign := k.g.Succs, k.phase == obs.PhaseBackward, 1
	if backward {
		adj, sign = k.g.Preds, -1
	}
	n := len(order)
	// A key is due<<shift | rank: no division takes one apart.
	shift := bits.Len(uint(n))
	mask := 1<<shift - 1
	ar := &s.cx.Arena
	rank, estart, queue := ar.Ints(n), ar.Ints(n), ar.Ints(n)[:0]
	for r, i := range order {
		rank[i] = r
		if wait[i] == 0 {
			// Due at cycle 0; ascending ranks already form a heap.
			queue = append(queue, r)
		}
	}
	var done <-chan struct{}
	if s.Ctx != nil {
		done = s.Ctx.Done()
	}
	limit := 64*n + 1024
	left, polls := n, 0
	for cycle := 0; ; {
		for len(queue) > 0 && queue[0]>>shift == cycle {
			if polls&1023 == 0 && done != nil {
				select {
				case <-done:
					return s.Ctx.Err()
				default:
				}
			}
			polls++
			var key int
			key, queue = popMin(queue)
			r := key & mask
			i := order[r]
			con := s.mdes.ConstraintFor(k.opIdxs[i], ops[i].Cascaded)
			sel, ok := s.attempt(k, i, con, sign*cycle)
			if !ok {
				queue = pushMin(queue, (cycle+1)<<shift|r)
				continue
			}
			s.cx.Reserve(sel)
			at[i] = cycle
			left--
			for _, e := range adj[i] {
				j := e.To
				if backward {
					j = e.From
				}
				estart[j] = max(estart[j], cycle+e.MinDist)
				if wait[j]--; wait[j] > 0 {
					continue
				}
				due := estart[j]
				if due <= cycle {
					due = cycle
					if rank[j] < r {
						due = cycle + 1
					}
				}
				queue = pushMin(queue, due<<shift|rank[j])
			}
		}
		if cycle > limit {
			return fmt.Errorf("sched: %s no progress after %d cycles", k.phase, cycle)
		}
		if left == 0 {
			return nil
		}
		if len(queue) == 0 {
			// No unscheduled operation has all its neighbours placed.
			return fmt.Errorf("sched: %s deadlock, %d operations unschedulable", k.phase, left)
		}
		// Every key due this cycle has been popped, so the next due
		// cycle is a later one.
		cycle = min(queue[0]>>shift, limit+1)
	}
}

// pushMin adds x to the binary min-heap h.
func pushMin(h []int, x int) []int {
	h = append(h, x)
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 2
		if h[p] <= x {
			break
		}
		h[c] = h[p]
		c = p
	}
	h[c] = x
	return h
}

// popMin removes and returns the least element of the non-empty binary
// min-heap h.
func popMin(h []int) (int, []int) {
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	n := len(h)
	p := 0
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if last <= h[c] {
			break
		}
		h[p] = h[c]
		p = c
	}
	if n > 0 {
		h[p] = last
	}
	return top, h
}

// sortByHeight stably sorts order by height, highest first, with a
// bottom-up merge sort through the caller's scratch buffer: it orders
// exactly as sort.SliceStable does, with no closure or reflection to
// allocate.
func sortByHeight(order, buf, height []int) {
	n := len(order)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			if mid >= n {
				break
			}
			hi := min(lo+2*width, n)
			a, b, o := lo, mid, lo
			for a < mid && b < hi {
				if x, y := order[a], order[b]; height[y] > height[x] {
					buf[o] = y
					b++
				} else {
					buf[o] = x
					a++
				}
				o++
			}
			o += copy(buf[o:], order[a:mid])
			copy(buf[o:], order[b:hi])
			copy(order[lo:hi], buf[lo:hi])
		}
	}
}

// ScheduleAll schedules a sequence of blocks, accumulating counters, and
// returns per-block results plus the grand totals.
func (s *Scheduler) ScheduleAll(blocks []*ir.Block) ([]*Result, stats.Counters, error) {
	var total stats.Counters
	results := make([]*Result, 0, len(blocks))
	for bi, b := range blocks {
		s.BlockID = int64(bi)
		r, err := s.ScheduleBlock(b)
		if err != nil {
			return nil, total, fmt.Errorf("block %d: %w", bi, err)
		}
		total.Add(r.Counters)
		results = append(results, r)
	}
	return results, total, nil
}
