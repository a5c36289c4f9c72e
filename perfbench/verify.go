package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"

	"mdes"
	"mdes/internal/cli"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/oracle"
	"mdes/sdk/mdesclient"
)

// desc is one description as the benchmark compiles it locally: the
// reference every schedule the program returns is compared with.
type desc struct {
	machine     machines.Name
	level       string
	source      string
	compiled    *mdes.Compiled
	engine      *mdes.Engine // library defaults
	fingerprint string
}

// buildDesc runs the translator pipeline for a built-in machine at the
// AND/OR form and the given optimization level, then builds an engine
// with the library's default options.
func buildDesc(m machines.Name, level string) (*desc, error) {
	src, err := machines.Source(m)
	if err != nil {
		return nil, err
	}
	lvl, err := cli.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	mach, err := mdes.Load(string(m)+".mdes", src)
	if err != nil {
		return nil, err
	}
	c := mdes.Compile(mach, mdes.FormAndOr)
	mdes.Optimize(c, lvl)
	eng, err := mdes.NewEngine(c)
	if err != nil {
		return nil, err
	}
	fp, err := c.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &desc{machine: m, level: level, source: src, compiled: c, engine: eng, fingerprint: fp}, nil
}

// mdesTiming gives dependence-graph construction the description's
// operand-level flow distances, as the scheduler does.
type mdesTiming struct{ m *lowlevel.MDES }

func (t mdesTiming) FlowDist(p, c *ir.Operation) int {
	pi, pok := t.m.OpIndex[p.Opcode]
	ci, cok := t.m.OpIndex[c.Opcode]
	if !pok || !cok {
		return 1
	}
	return t.m.FlowDistance(pi, ci)
}

func (t mdesTiming) Latency(opcode string) int {
	if i, ok := t.m.OpIndex[opcode]; ok {
		return t.m.Operations[i].Latency
	}
	return 1
}

// reference schedules every block once on the description's serial
// engine and checks each schedule independently of the scheduler:
// dependences against the block's graph, resources by placing the
// operations on the oracle's unoptimized tables.
func reference(d *desc, blocks []*ir.Block) ([]*mdes.Result, error) {
	res, _, err := d.engine.ScheduleBlocks(context.Background(), blocks, 1)
	if err != nil {
		return nil, err
	}
	mach, err := machines.Load(d.machine)
	if err != nil {
		return nil, err
	}
	orc := oracle.New(mach).MDES()
	tm := mdesTiming{m: d.compiled}
	for bi, b := range blocks {
		g := ir.BuildGraphTiming(b, tm)
		if err := g.CheckSchedule(res[bi].Issue); err != nil {
			return nil, fmt.Errorf("%s block %d: %w", d.machine, bi, err)
		}
		if err := place(orc, b, res[bi].Issue, g.Height(tm.Latency)); err != nil {
			return nil, fmt.Errorf("%s block %d: %w", d.machine, bi, err)
		}
	}
	return res, nil
}

// place replays a schedule on the oracle's fully expanded OR-form tables
// in the scheduler's reservation order (issue cycle, then priority), each
// operation taking the first option whose slots are all free, the oracle's
// rule. The oracle's own Place ignores cascaded classes, which the
// SuperSPARC workload uses, so the rule is applied here with the cascaded
// class selected.
func place(orc *lowlevel.MDES, b *ir.Block, issue, height []int) error {
	order := make([]int, len(b.Ops))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		if issue[i] != issue[j] {
			return issue[i] < issue[j]
		}
		if height[i] != height[j] {
			return height[i] > height[j]
		}
		return i < j
	})
	busy := map[oracle.Slot]bool{}
	for _, i := range order {
		op := b.Ops[i]
		idx, ok := orc.OpIndex[op.Opcode]
		if !ok {
			return fmt.Errorf("op %d: opcode %q not in the oracle's tables", i, op.Opcode)
		}
		tree := orc.ConstraintFor(idx, op.Cascaded).Trees[0]
		var fit *lowlevel.Option
		for _, opt := range tree.Options {
			free := true
			for _, u := range opt.Usages {
				if busy[oracle.Slot{Res: int(u.Res), Cycle: issue[i] + int(u.Time)}] {
					free = false
					break
				}
			}
			if free {
				fit = opt
				break
			}
		}
		if fit == nil {
			return fmt.Errorf("op %d (%s) at cycle %d: no free reservation option", i, op.Opcode, issue[i])
		}
		for _, u := range fit.Usages {
			busy[oracle.Slot{Res: int(u.Res), Cycle: issue[i] + int(u.Time)}] = true
		}
	}
	return nil
}

// sameResults reports whether got matches the reference exactly: issue
// cycles, lengths and the five paper counters.
func sameResults(got, want []*mdes.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] == nil || got[i].Length != want[i].Length || got[i].Counters != want[i].Counters || !sameInts(got[i].Issue, want[i].Issue) {
			return false
		}
	}
	return true
}

// sameWire reports whether a daemon response matches the reference.
func sameWire(got *mdesclient.ScheduleResponse, want []*mdes.Result, total mdesclient.Counters) bool {
	if len(got.Results) != len(want) || got.Counters != total {
		return false
	}
	for i, r := range got.Results {
		if r.Length != want[i].Length || !sameInts(r.Issue, want[i].Issue) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func wireTotal(rs []*mdes.Result) mdesclient.Counters {
	var t mdes.Counters
	for _, r := range rs {
		t.Add(r.Counters)
	}
	return mdesclient.Counters{Attempts: t.Attempts, OptionsChecked: t.OptionsChecked,
		ResourceChecks: t.ResourceChecks, Conflicts: t.Conflicts, Backtracks: t.Backtracks}
}

// digest folds reference schedules into the pinned workload digest:
// issue cycles, lengths and the five paper counters, in input order.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(rs []*mdes.Result) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		d.h.Write(buf[:])
	}
	for _, r := range rs {
		put(int64(len(r.Issue)))
		for _, c := range r.Issue {
			put(int64(c))
		}
		put(int64(r.Length))
		c := r.Counters
		for _, v := range []int64{c.Attempts, c.OptionsChecked, c.ResourceChecks, c.Conflicts, c.Backtracks} {
			put(v)
		}
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// probeCounts are the paper's per-operation ratios over a set of
// reference schedules. They are fixed by the descriptions and inputs.
type probeCounts struct {
	ops, attempts, options, checks, length int64
}

func (p *probeCounts) add(rs []*mdes.Result) {
	for _, r := range rs {
		p.ops += int64(len(r.Issue))
		p.attempts += r.Counters.Attempts
		p.options += r.Counters.OptionsChecked
		p.checks += r.Counters.ResourceChecks
		p.length += int64(r.Length)
	}
}
