// Package rumap implements the resource-usage (RU) map: the per-cycle
// bit-vector record of reserved resources that the scheduler consults on
// every scheduling attempt (paper §6), together with the resource-constraint
// check/reserve algorithms for OR-trees and AND/OR-trees.
package rumap

import (
	"fmt"
	"math/bits"

	"mdes/internal/bitset"
	"mdes/internal/lowlevel"
	"mdes/internal/stats"
)

// Map tracks which resources are reserved at which absolute cycles. Rows
// are allocated lazily and the window may extend to negative cycles
// (decode-stage usages of operations issued at cycle 0).
type Map struct {
	numRes int
	rows   []bitset.Set
	// base is the absolute cycle of rows[0].
	base int
	// chosen is the selection arena; scratch is one constraint's worth of
	// per-tree choices, copied into the arena only on success.
	chosen  []int
	scratch []int
}

// New returns an empty RU map for a machine with numRes resources.
func New(numRes int) *Map {
	return &Map{numRes: numRes}
}

// Reset clears all reservations, retaining allocated storage, and
// recycles the selection arena: Selections returned before the Reset are
// no longer valid.
func (m *Map) Reset() {
	for i := range m.rows {
		m.rows[i].Reset()
	}
	m.chosen = m.chosen[:0]
}

// row returns the row for an absolute cycle, growing the window as needed.
func (m *Map) row(cycle int) *bitset.Set {
	if len(m.rows) == 0 {
		m.base = cycle
		m.rows = append(m.rows, bitset.New(m.numRes))
		return &m.rows[0]
	}
	for cycle < m.base {
		// Grow downward by prepending; amortized by doubling.
		grow := len(m.rows)
		if grow < m.base-cycle {
			grow = m.base - cycle
		}
		fresh := make([]bitset.Set, grow, grow+len(m.rows))
		for i := range fresh {
			fresh[i] = bitset.New(m.numRes)
		}
		m.rows = append(fresh, m.rows...)
		m.base -= grow
	}
	for cycle >= m.base+len(m.rows) {
		m.rows = append(m.rows, bitset.New(m.numRes))
	}
	return &m.rows[cycle-m.base]
}

// peek returns the row for a cycle if it exists, without growing.
func (m *Map) peek(cycle int) *bitset.Set {
	i := cycle - m.base
	if len(m.rows) == 0 || i < 0 || i >= len(m.rows) {
		return nil
	}
	return &m.rows[i]
}

// Busy reports whether resource res is reserved at cycle.
func (m *Map) Busy(res, cycle int) bool {
	r := m.peek(cycle)
	return r != nil && r.Test(res)
}

// reserveBit sets resource res at cycle, reporting whether it was free.
func (m *Map) reserveBit(res, cycle int) bool {
	r := m.row(cycle)
	if r.Test(res) {
		return false
	}
	r.Set(res)
	return true
}

// OptionAvailable reports whether every usage of the option is free when
// the operation issues at cycle issue. It short-circuits at the first busy
// usage and accounts each probe as one resource check in c.
func (m *Map) OptionAvailable(o *lowlevel.Option, issue int, c *stats.Counters) bool {
	if o.Masks != nil {
		for _, cm := range o.Masks {
			c.ResourceChecks++
			r := m.peek(issue + int(cm.Time))
			if r != nil && r.IntersectsMask(int(cm.Word), cm.Mask) {
				return false
			}
		}
		return true
	}
	for _, u := range o.Usages {
		c.ResourceChecks++
		r := m.peek(issue + int(u.Time))
		if r != nil && r.Test(int(u.Res)) {
			return false
		}
	}
	return true
}

// reserveOption marks every usage of the option as busy; it panics if a
// slot is already reserved, since the caller must have checked first.
func (m *Map) reserveOption(o *lowlevel.Option, issue int) {
	if o.Masks != nil {
		for _, cm := range o.Masks {
			r := m.row(issue + int(cm.Time))
			if r.IntersectsMask(int(cm.Word), cm.Mask) {
				panic(fmt.Sprintf("rumap: double reservation at cycle %d", issue+int(cm.Time)))
			}
			r.OrMask(int(cm.Word), cm.Mask)
		}
		return
	}
	for _, u := range o.Usages {
		if !m.reserveBit(int(u.Res), issue+int(u.Time)) {
			panic(fmt.Sprintf("rumap: double reservation of r%d at cycle %d", u.Res, issue+int(u.Time)))
		}
	}
}

// releaseOption clears every usage of the option.
func (m *Map) releaseOption(o *lowlevel.Option, issue int) {
	if o.Masks != nil {
		for _, cm := range o.Masks {
			if r := m.peek(issue + int(cm.Time)); r != nil {
				r.AndNotMask(int(cm.Word), cm.Mask)
			}
		}
		return
	}
	for _, u := range o.Usages {
		if r := m.peek(issue + int(u.Time)); r != nil {
			r.Clear(int(u.Res))
		}
	}
}

// Selection records which option of each tree of a constraint was chosen by
// a successful check, so the reservation can be applied or later released.
type Selection struct {
	Constraint *lowlevel.Constraint
	Issue      int
	// Chosen[i] is the selected option index within Constraint.Trees[i].
	Chosen []int
}

// Check tests whether the constraint can be satisfied with the operation
// issued at cycle issue, using the AND-of-OR-trees algorithm of §3: each
// OR-tree is scanned in priority order for its first available option; the
// scan short-circuits at the first OR-tree with no available option.
// For FormOR constraints there is a single tree, so this degenerates to the
// traditional algorithm. Counters accumulate one Attempt, plus the options
// and resource checks performed.
//
// On success the returned Selection identifies the chosen options; nothing
// is reserved until Reserve is called with it. Its Chosen slice is
// borrowed from the map's arena and stays valid until the next Reset, so
// a steady-state Check/Reserve loop allocates nothing.
func (m *Map) Check(con *lowlevel.Constraint, issue int, c *stats.Counters) (Selection, bool) {
	c.Attempts++
	if cap(m.scratch) < len(con.Trees) {
		m.scratch = make([]int, len(con.Trees))
	}
	scratch := m.scratch[:len(con.Trees)]
	for ti, tree := range con.Trees {
		found := -1
		for oi, o := range tree.Options {
			c.OptionsChecked++
			if m.OptionAvailable(o, issue, c) {
				found = oi
				break
			}
		}
		if found < 0 {
			c.Conflicts++
			return Selection{}, false
		}
		scratch[ti] = found
	}
	start := len(m.chosen)
	m.chosen = append(m.chosen, scratch...)
	return Selection{Constraint: con, Issue: issue, Chosen: m.chosen[start:len(m.chosen):len(m.chosen)]}, true
}

// Reserve applies a successful Selection to the map.
func (m *Map) Reserve(sel Selection) {
	for ti, tree := range sel.Constraint.Trees {
		m.reserveOption(tree.Options[sel.Chosen[ti]], sel.Issue)
	}
}

// Release undoes a previous Reserve (needed by unscheduling-based
// techniques such as iterative modulo scheduling; paper §10 notes this is
// straightforward with reservation tables).
func (m *Map) Release(sel Selection) {
	for ti, tree := range sel.Constraint.Trees {
		m.releaseOption(tree.Options[sel.Chosen[ti]], sel.Issue)
	}
}

// optionFree reports whether every usage of the option is free with the
// operation issued at cycle issue, without instrumentation — the
// attribution-only twin of OptionAvailable used by ExplainConflict.
func (m *Map) optionFree(o *lowlevel.Option, issue int) bool {
	if o.Masks != nil {
		for _, cm := range o.Masks {
			r := m.peek(issue + int(cm.Time))
			if r != nil && r.IntersectsMask(int(cm.Word), cm.Mask) {
				return false
			}
		}
		return true
	}
	for _, u := range o.Usages {
		r := m.peek(issue + int(u.Time))
		if r != nil && r.Test(int(u.Res)) {
			return false
		}
	}
	return true
}

// optionBlocker returns the first busy (resource, relative usage time)
// slot blocking the option at issue.
func (m *Map) optionBlocker(o *lowlevel.Option, issue int) (res, time int, found bool) {
	if o.Masks != nil {
		for _, cm := range o.Masks {
			r := m.peek(issue + int(cm.Time))
			if r != nil && r.IntersectsMask(int(cm.Word), cm.Mask) {
				w := r.Word(int(cm.Word)) & cm.Mask
				return int(cm.Word)*bitset.WordBits + bits.TrailingZeros64(w), int(cm.Time), true
			}
		}
		return 0, 0, false
	}
	for _, u := range o.Usages {
		r := m.peek(issue + int(u.Time))
		if r != nil && r.Test(int(u.Res)) {
			return int(u.Res), int(u.Time), true
		}
	}
	return 0, 0, false
}

// Conflict attributes one failed Check: which resource, at which relative
// usage time, kept the preferred reservation from issuing, in which
// low-level tree — and, through the provenance map, which HMDES source
// (reservation/table option, lowlevel.Option.Src syntax) that blocking
// usage was compiled from.
type Conflict struct {
	// Res and Time are the blocking resource index and the relative usage
	// time of the blocked probe.
	Res  int
	Time int
	// Tree is the name of the unsatisfiable tree; Src is the HMDES
	// provenance of its highest-priority (blocked) option, falling back
	// to the tree's own provenance when the option predates it.
	Tree string
	Src  string
}

// ExplainConflict attributes a failed Check: for the first tree of the
// constraint with no available option at issue, it returns the blocking
// slot of that tree's highest-priority option together with the tree's
// name and the option's HMDES provenance — the conflict detail the trace
// and the conflicts-by-resource metric report. It performs no accounting
// (the failed Check already counted the probes) and runs only on the
// observability slow path. found is false when the constraint is
// satisfiable.
func (m *Map) ExplainConflict(con *lowlevel.Constraint, issue int) (c Conflict, found bool) {
	for _, tree := range con.Trees {
		satisfiable := false
		for _, o := range tree.Options {
			if m.optionFree(o, issue) {
				satisfiable = true
				break
			}
		}
		if !satisfiable {
			blocked := tree.Options[0]
			res, time, ok := m.optionBlocker(blocked, issue)
			if !ok {
				return Conflict{}, false
			}
			src := blocked.Src
			if src == "" {
				src = tree.Src
			}
			return Conflict{Res: res, Time: time, Tree: tree.Name, Src: src}, true
		}
	}
	return Conflict{}, false
}

// BlockerTreeRes returns the position (within the constraint) of the
// first unsatisfiable tree at issue and the resource blocking its
// highest-priority option: the conflict-profile slice of ExplainConflict,
// attributing tree + resource with no provenance strings. Returns (-1, -1)
// when the constraint is satisfiable, and (ti, -1) when the tree is
// unsatisfiable but its preferred option has no materialized blocking slot.
func (m *Map) BlockerTreeRes(con *lowlevel.Constraint, issue int) (int, int) {
	for ti, tree := range con.Trees {
		satisfiable := false
		for _, o := range tree.Options {
			if m.optionFree(o, issue) {
				satisfiable = true
				break
			}
		}
		if !satisfiable {
			if res, _, ok := m.optionBlocker(tree.Options[0], issue); ok {
				return ti, res
			}
			return ti, -1
		}
	}
	return -1, -1
}

// ReservedSlots returns every (resource, cycle) currently reserved, for
// tests that compare reservations across representations. Hot paths should
// use AppendReservedSlots, which reuses the caller's buffer.
func (m *Map) ReservedSlots() map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, s := range m.AppendReservedSlots(nil) {
		out[s] = true
	}
	return out
}

// AppendReservedSlots appends every (resource, cycle) currently reserved
// to dst and returns the extended slice. Passing a buffer with spare
// capacity (dst[:0] of a previous result) makes the snapshot
// allocation-free.
func (m *Map) AppendReservedSlots(dst [][2]int) [][2]int {
	for i := range m.rows {
		cycle := m.base + i
		m.rows[i].ForEach(func(res int) {
			dst = append(dst, [2]int{res, cycle})
		})
	}
	return dst
}
