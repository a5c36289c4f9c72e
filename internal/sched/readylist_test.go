package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mdes/internal/check"
	"mdes/internal/hmdes"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/mdgen"
	"mdes/internal/obs"
	"mdes/internal/opt"
	"mdes/internal/resctx"
	"mdes/internal/workload"
)

// refCycles is the cycle loop the ready list replaced, kept verbatim as
// the reference the ready list must match attempt for attempt: at every
// cycle it rescans each unscheduled operation in priority order.
func refCycles(s *Scheduler, k *block, order, wait, estart, at []int) error {
	ops := k.g.Block.Ops
	adj, backward, sign := k.g.Succs, k.phase == obs.PhaseBackward, 1
	if backward {
		adj, sign = k.g.Preds, -1
	}
	n := len(order)
	for cycle := 0; len(order) > 0; cycle++ {
		r, live, progressPossible := 0, 0, false
		for {
			var ready bool
			r, live, ready = refCarry(order, wait, estart, r, live, cycle)
			progressPossible = progressPossible || ready
			if r == len(order) {
				break
			}
			i := order[r]
			r++
			con := s.mdes.ConstraintFor(k.opIdxs[i], ops[i].Cascaded)
			if sel, ok := s.attempt(k, i, con, sign*cycle); ok {
				s.cx.Reserve(sel)
				at[i] = cycle
				for _, e := range adj[i] {
					j := e.To
					if backward {
						j = e.From
					}
					wait[j]--
					estart[j] = max(estart[j], cycle+e.MinDist)
				}
				continue
			}
			order[live] = i
			live++
		}
		order = order[:live]
		if !progressPossible && live > 0 {
			return fmt.Errorf("sched: %s deadlock, %d operations unschedulable", k.phase, live)
		}
		if cycle > 64*n+1024 {
			return fmt.Errorf("sched: %s no progress after %d cycles", k.phase, cycle)
		}
	}
	return nil
}

// refCarry moves the operations of order[r:] that cannot issue at cycle
// down to order[live:], stopping at the first that can.
func refCarry(order, wait, estart []int, r, live, cycle int) (int, int, bool) {
	ready := false
	for ; r < len(order); r++ {
		i := order[r]
		if wait[i] == 0 {
			ready = true
			if estart[i] <= cycle {
				break
			}
		}
		order[live] = i
		live++
	}
	return r, live, ready
}

// refScheduleBlock is ScheduleBlock over refCycles.
func refScheduleBlock(s *Scheduler, b *ir.Block) (*Result, error) {
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
	if err := refCycles(s, &k, order, npreds, ar.Ints(n), k.res.Issue); err != nil {
		return s.fail(&k, err)
	}
	return s.finish(&k)
}

// refScheduleBlockBackward is ScheduleBlockBackward over refCycles.
func refScheduleBlockBackward(s *Scheduler, b *ir.Block) (*Result, error) {
	n := len(b.Ops)
	if n == 0 {
		return &Result{Issue: []int{}}, nil
	}
	k, err := s.begin(b, obs.PhaseBackward)
	if err != nil {
		return nil, err
	}
	ar := &s.cx.Arena
	ops := s.mdes.Operations
	depth := ar.Ints(n)
	for i := range depth {
		d := ops[k.opIdxs[i]].Latency
		for _, e := range k.g.Preds[i] {
			if v := depth[e.From] + e.MinDist; v > d {
				d = v
			}
		}
		depth[i] = d
	}
	nsuccs := ar.Ints(n)
	for i, sc := range k.g.Succs {
		nsuccs[i] = len(sc)
	}
	order := ar.Ints(n)
	for i := range order {
		order[i] = n - 1 - i
	}
	sortByHeight(order, ar.Ints(n), depth)
	tau := ar.Ints(n)
	if err := refCycles(s, &k, order, nsuccs, ar.Ints(n), tau); err != nil {
		return s.fail(&k, err)
	}
	maxTau := 0
	for _, t := range tau {
		maxTau = max(maxTau, t)
	}
	for i, t := range tau {
		k.res.Issue[i] = maxTau - t
	}
	return s.finish(&k)
}

// outcome is everything one scheduling run exposes: the result, the error
// text, and the block's trace record — every attempt's operation, cycle,
// options checked, chosen option and success, every conflict attribution,
// the final length and the five counters.
type outcome struct {
	res *Result
	err string
	rec *obs.BlockRecord
}

func traced(s *Scheduler, run func() (*Result, error)) outcome {
	ring := obs.NewRingSink(1)
	s.Tracer = obs.New(ring)
	defer func() { s.Tracer = nil }()
	var o outcome
	res, err := run()
	o.res = res
	if err != nil {
		o.err = err.Error()
	}
	if recs := ring.Snapshot(); len(recs) == 1 {
		o.rec = recs[0]
	}
	return o
}

func sameOutcome(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: error %q, reference %q", what, got.err, want.err)
	}
	if (got.res == nil) != (want.res == nil) {
		t.Fatalf("%s: result %v, reference %v", what, got.res, want.res)
	}
	if got.res != nil && !reflect.DeepEqual(*got.res, *want.res) {
		t.Fatalf("%s: result length %d counters %+v, reference length %d counters %+v",
			what, got.res.Length, got.res.Counters, want.res.Length, want.res.Counters)
	}
	if (got.rec == nil) != (want.rec == nil) {
		t.Fatalf("%s: trace record %v, reference %v", what, got.rec != nil, want.rec != nil)
	}
	if got.rec == nil {
		return
	}
	if len(got.rec.Events) != len(want.rec.Events) {
		t.Fatalf("%s: %d trace events, reference %d", what, len(got.rec.Events), len(want.rec.Events))
	}
	for e := range got.rec.Events {
		if got.rec.Events[e] != want.rec.Events[e] {
			t.Fatalf("%s: event %d is %+v, reference %+v", what, e, got.rec.Events[e], want.rec.Events[e])
		}
	}
	if !reflect.DeepEqual(*got.rec, *want.rec) {
		t.Fatalf("%s: trace record length %d counters %+v, reference length %d counters %+v",
			what, got.rec.Length, got.rec.Counters, want.rec.Length, want.rec.Counters)
	}
}

// equivalent schedules b forward (and backward, when the backend probes
// at random) with the ready list and with the reference loop and requires
// identical outcomes.
func equivalent(t *testing.T, s *Scheduler, what string, b *ir.Block) {
	t.Helper()
	got := traced(s, func() (*Result, error) { return s.ScheduleBlock(b) })
	want := traced(s, func() (*Result, error) { return refScheduleBlock(s, b) })
	sameOutcome(t, what+"/forward", got, want)
	if s.cx.Checker.Capabilities().MonotonicOnly {
		return
	}
	got = traced(s, func() (*Result, error) { return s.ScheduleBlockBackward(b) })
	want = traced(s, func() (*Result, error) { return refScheduleBlockBackward(s, b) })
	sameOutcome(t, what+"/backward", got, want)
}

// backends returns one scheduler per checker backend that can drive m.
func backends(t *testing.T, m *lowlevel.MDES) map[string]*Scheduler {
	t.Helper()
	out := map[string]*Scheduler{}
	for _, kind := range check.Kinds() {
		f, err := check.NewFactory(m, kind)
		if err != nil {
			continue
		}
		s := NewWithContext(m, resctx.NewFor(f))
		s.SelfCheck = true
		out[kind.String()] = s
	}
	if len(out) == 0 {
		t.Fatalf("%s: no backend can drive the description", m.MachineName)
	}
	return out
}

func compiled(tb testing.TB, hm *hmdes.Machine) *lowlevel.MDES {
	tb.Helper()
	m := lowlevel.Compile(hm, lowlevel.FormAndOr)
	opt.Apply(m, opt.LevelFull, opt.Forward)
	if err := m.Freeze(); err != nil {
		tb.Fatal(err)
	}
	return m
}

// machineBlock draws a block of n operations over m's opcodes with random
// register, memory, cascade and branch traffic.
func machineBlock(m *lowlevel.MDES, n int, r *rand.Rand) *ir.Block {
	b := &ir.Block{Ops: make([]*ir.Operation, n)}
	for i := range b.Ops {
		o := &ir.Operation{
			Opcode:   m.Operations[r.Intn(len(m.Operations))].Name,
			Dests:    []int{r.Intn(12)},
			Srcs:     []int{r.Intn(12), r.Intn(12)},
			Cascaded: r.Intn(4) == 0,
		}
		switch r.Intn(6) {
		case 0:
			o.Mem = ir.MemLoad
		case 1:
			o.Mem, o.Dests = ir.MemStore, nil
		}
		b.Ops[i] = o
	}
	b.Ops[n-1].Branch = r.Intn(2) == 0
	b.Renumber()
	return b
}

// The ready list attempts the reference loop's (op, cycle) pairs in the
// reference's order on every backend, in both directions, over generated
// machines: same trace events, issue cycles, length, counters.
func TestReadyListMatchesRescanGenerated(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		spec := mdgen.Generate(seed)
		hm, err := spec.Machine()
		if err != nil {
			t.Fatal(err)
		}
		m := compiled(t, hm)
		r := rand.New(rand.NewSource(seed))
		for name, s := range backends(t, m) {
			for bi := 0; bi < 8; bi++ {
				b := machineBlock(m, 1+r.Intn(120), r)
				equivalent(t, s, fmt.Sprintf("%s/%s/block%d", spec.Name(), name, bi), b)
			}
		}
	}
}

// The same equivalence over the paper machines' workload blocks (the
// SuperSPARC's cascaded pairs carry distance-0 flow edges) and over long
// K5 FOP chains, where the loop jumps across each latency shadow.
func TestReadyListMatchesRescanWorkloads(t *testing.T) {
	for _, name := range []machines.Name{machines.SuperSPARC, machines.K5, machines.PA7100, machines.Pentium} {
		m := compiled(t, machines.MustLoad(name))
		prog, err := workload.Generate(workload.Config{Machine: name, NumOps: 1200, Seed: 1996})
		if err != nil {
			t.Fatal(err)
		}
		for kind, s := range backends(t, m) {
			for bi, b := range prog.Blocks {
				equivalent(t, s, fmt.Sprintf("%s/%s/block%d", name, kind, bi), b)
			}
			if name == machines.K5 {
				for _, n := range []int{1, 2, 700} {
					equivalent(t, s, fmt.Sprintf("k5/%s/chain%d", kind, n), fopChain(n))
				}
			}
		}
	}
}

// fopChain returns a K5 block of n FOP operations, each consuming the
// previous one's result.
func fopChain(n int) *ir.Block {
	b := &ir.Block{Ops: make([]*ir.Operation, n)}
	for i := range b.Ops {
		b.Ops[i] = &ir.Operation{Opcode: "FOP", Dests: []int{1}, Srcs: []int{1, 2}}
	}
	b.Renumber()
	return b
}

// handGraph runs cycles, or the reference loop, over a hand-built
// dependence graph in a hand-picked priority order, traced.
func handGraph(t *testing.T, s *Scheduler, b *ir.Block, edges []ir.Edge, order []int, ref bool) outcome {
	t.Helper()
	return traced(s, func() (*Result, error) {
		k, err := s.begin(b, obs.PhaseList)
		if err != nil {
			return nil, err
		}
		n := len(b.Ops)
		g := &ir.Graph{Block: b, Succs: make([][]ir.Edge, n), Preds: make([][]ir.Edge, n)}
		wait := make([]int, n)
		for _, e := range edges {
			g.Succs[e.From] = append(g.Succs[e.From], e)
			g.Preds[e.To] = append(g.Preds[e.To], e)
			wait[e.To]++
		}
		k.g = g
		order := append([]int(nil), order...)
		if ref {
			err = refCycles(s, &k, order, wait, make([]int, n), k.res.Issue)
		} else {
			err = s.cycles(&k, order, wait, k.res.Issue)
		}
		if err != nil {
			return s.fail(&k, err)
		}
		return s.finish(&k)
	})
}

// A success releases operations over distance-0 (and negative) edges that
// rank both before and after it: those after must be attempted in the
// same cycle, those before in the next. Random priority orders over
// random graphs on a two-issue machine (so attempts also fail) cover both
// directions; cyclic graphs and long edges reach the deadlock and
// no-progress errors, which must fire at the same point with the same
// text.
func TestReadyListMatchesRescanHandBuilt(t *testing.T) {
	s := newSched(t, lowlevel.FormAndOr, opt.LevelNone)
	opcodes := []string{"ADD", "MUL", "LD", "ST", "BR"}
	same := func(what string, b *ir.Block, edges []ir.Edge, order []int) {
		t.Helper()
		sameOutcome(t, what, handGraph(t, s, b, edges, order, false), handGraph(t, s, b, edges, order, true))
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.Intn(40)
		b := &ir.Block{Ops: make([]*ir.Operation, n)}
		for i := range b.Ops {
			b.Ops[i] = &ir.Operation{Opcode: opcodes[r.Intn(len(opcodes))]}
		}
		b.Renumber()
		var edges []ir.Edge
		for to := 1; to < n; to++ {
			for from := 0; from < to; from++ {
				if r.Intn(4) == 0 {
					edges = append(edges, ir.Edge{From: from, To: to, MinDist: r.Intn(5) - 1})
				}
			}
		}
		if trial%10 == 0 {
			// A back edge closes a cycle: some operations never get ready.
			from, to := r.Intn(n), r.Intn(n)
			edges = append(edges, ir.Edge{From: max(from, to), To: min(from, to), MinDist: 0})
		}
		if trial%25 == 0 {
			// One edge past the no-progress horizon of 64n+1024 cycles.
			edges = append(edges, ir.Edge{From: 0, To: n - 1, MinDist: 64*n + 1024 + r.Intn(3)})
		}
		order := r.Perm(n)
		same(fmt.Sprintf("trial%d", trial), b, edges, order)
	}

	// Releases on both sides of the releaser: op 1 issues first and frees
	// op 0 (ranked before it: next cycle) and op 2 (ranked after it: this
	// cycle) over distance-0 edges.
	b := &ir.Block{Ops: []*ir.Operation{{Opcode: "ADD"}, {Opcode: "ADD"}, {Opcode: "ADD"}}}
	b.Renumber()
	edges := []ir.Edge{{From: 1, To: 0}, {From: 1, To: 2}}
	got := handGraph(t, s, b, edges, []int{0, 1, 2}, false)
	if got.err != "" || !reflect.DeepEqual(got.res.Issue, []int{1, 0, 0}) {
		t.Fatalf("distance-0 releases: issue %v err %q, want [1 0 0]", got.res.Issue, got.err)
	}
	same("both-sides", b, edges, []int{0, 1, 2})
}

// The no-progress error fires at the cycle the rescan would reach: an
// operation whose earliest start lies past the horizon gets attempted at
// its cycle only if that is the horizon's first cycle.
func TestReadyListNoProgressCycle(t *testing.T) {
	for _, tc := range []struct {
		latency int
		err     string
	}{
		{64*2 + 1024, ""},
		{64*2 + 1025, "sched: list no progress after 1153 cycles"},
		{64*2 + 1026, "sched: list no progress after 1153 cycles"},
		{100000, "sched: list no progress after 1153 cycles"},
	} {
		hm, err := hmdes.Load("far", fmt.Sprintf(`machine far {
		  resource U;
		  class c { use U @ 0; }
		  operation SLOW class c latency %d;
		}`, tc.latency))
		if err != nil {
			t.Fatal(err)
		}
		s := New(lowlevel.Compile(hm, lowlevel.FormAndOr))
		b := &ir.Block{Ops: []*ir.Operation{
			{Opcode: "SLOW", Dests: []int{1}},
			{Opcode: "SLOW", Srcs: []int{1}},
		}}
		b.Renumber()
		got := traced(s, func() (*Result, error) { return s.ScheduleBlock(b) })
		want := traced(s, func() (*Result, error) { return refScheduleBlock(s, b) })
		sameOutcome(t, fmt.Sprintf("latency%d", tc.latency), got, want)
		if got.err != tc.err {
			t.Fatalf("latency %d: error %q, want %q", tc.latency, got.err, tc.err)
		}
	}
}
