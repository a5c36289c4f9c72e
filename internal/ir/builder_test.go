package ir

import (
	"math/rand"
	"testing"
)

// opTiming gives every (producer, consumer) opcode pair its own flow
// distance, so an edge built from the wrong producer shows up.
type opTiming struct{}

func (opTiming) FlowDist(p, c *Operation) int { return len(p.Opcode) + int(c.Opcode[0]%3) }
func (opTiming) Latency(opcode string) int    { return len(opcode) }

// builderBlock returns a random renumbered block of n ops over a small
// register file (so anti and output edges are common), with loads,
// stores, cascaded consumers and mid-block branches. With negReg set, one
// operand is a negative register, which sends Build down its map-based
// fallback.
func builderBlock(r *rand.Rand, n int, negReg bool) *Block {
	opcodes := []string{"ADD", "MUL", "LD", "ST", "FDIV"}
	regs := 2 + r.Intn(2*n+1)
	b := &Block{}
	for i := 0; i < n; i++ {
		op := &Operation{Opcode: opcodes[r.Intn(len(opcodes))]}
		for k := r.Intn(3); k > 0; k-- {
			op.Srcs = append(op.Srcs, r.Intn(regs))
		}
		for k := r.Intn(2); k > 0; k-- {
			op.Dests = append(op.Dests, r.Intn(regs))
		}
		switch r.Intn(6) {
		case 0:
			op.Mem = MemLoad
		case 1:
			op.Mem = MemStore
		}
		op.Cascaded = r.Intn(8) == 0
		op.Branch = r.Intn(40) == 0 || i == n-1
		b.Ops = append(b.Ops, op)
	}
	if negReg {
		op := b.Ops[r.Intn(n)]
		op.Srcs = append(op.Srcs, -1-r.Intn(4))
	}
	b.Renumber()
	return b
}

// builderLadder is a shuffled ladder of block sizes that grows and
// shrinks, so a reused builder sees both fresh capacity needs and
// leftover scratch from larger blocks.
func builderLadder(r *rand.Rand) []int {
	var sizes []int
	for _, n := range []int{1, 2, 3, 9, 40, 130, 400, 900} {
		for k := 0; k < 4; k++ {
			sizes = append(sizes, n+r.Intn(n+1))
		}
	}
	r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

func sameEdges(t *testing.T, what string, blk, op int, got, want []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("block %d: %s[%d] has %d edges, want %d", blk, what, op, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("block %d: %s[%d][%d] = %+v, want %+v", blk, what, op, k, got[k], want[k])
		}
	}
}

// One reused Builder must produce exactly BuildGraphTiming's edges, in
// BuildGraphTiming's order, for every block of the ladder.
func TestBuilderMatchesBuildGraphTiming(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var bl Builder
	for bi, n := range builderLadder(r) {
		b := builderBlock(r, n, r.Intn(5) == 0)
		want := BuildGraphTiming(b, opTiming{})
		got := bl.Build(b, opTiming{})
		if got.Block != b || len(got.Succs) != n || len(got.Preds) != n {
			t.Fatalf("block %d: graph over %d ops has %d succ and %d pred lists", bi, n, len(got.Succs), len(got.Preds))
		}
		for i := 0; i < n; i++ {
			sameEdges(t, "Succs", bi, i, got.Succs[i], want.Succs[i])
			sameEdges(t, "Preds", bi, i, got.Preds[i], want.Preds[i])
		}
	}
}

// A reused Builder's edge storage must stay within a small constant of
// the largest block's edge count, however the ladder mixes sizes and
// branch positions.
func TestBuilderRetentionBound(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var bl Builder
	maxEdges := 0
	for _, n := range builderLadder(r) {
		g := bl.Build(builderBlock(r, n, false), opTiming{})
		edges := 0
		for _, p := range g.Preds {
			edges += len(p)
		}
		maxEdges = max(maxEdges, edges)
	}
	if got := cap(bl.in) + cap(bl.out); got > 4*maxEdges {
		t.Fatalf("builder retains %d edges of storage, largest block has %d", got, maxEdges)
	}
}
