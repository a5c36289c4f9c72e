package main

import (
	"fmt"

	"mdes/internal/ir"
	"mdes/internal/machines"
	"mdes/internal/workload"
)

// Input sizes. Everything the program sees is generated from the seed
// with these sizes.
const (
	// batchOps is the size of one serve-batch request and of one
	// engine-paper-mix corpus: about 1 200 K5 blocks, 740 KB of JSON.
	batchOps = 20000
	// batchRequests is the number of distinct serve-batch requests the
	// clients cycle through.
	batchRequests = 4
	// smallOps is the size of one serve-mixed request.
	smallOps = 400
	// smallPerTenant is the number of distinct serve-mixed requests per
	// tenant.
	smallPerTenant = 16
	// longMin and longMax bound the engine-long-blocks block sizes.
	longMin, longMax = 1024, 4096
	// longBatch is the number of blocks in one engine-long-blocks call,
	// half FOP chains and half joined generated blocks.
	longBatch = 4
	// longBatches is the number of distinct engine-long-blocks batches.
	longBatches = 12
)

// paperMachines are the four machines of the paper's evaluation.
var paperMachines = []machines.Name{machines.PA7100, machines.Pentium, machines.SuperSPARC, machines.K5}

// subSeed derives an independent generator seed for one input of a run,
// so inputs do not shift when a workload adds or drops another input.
func subSeed(seed int64, parts ...int64) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		h ^= uint64(p) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
	}
	return int64(h >> 1)
}

// program generates a synthetic program of about ops operations.
func program(m machines.Name, ops int, seed int64) ([]*ir.Block, error) {
	p, err := workload.Generate(workload.Config{Machine: m, NumOps: ops, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", m, err)
	}
	return p.Blocks, nil
}

// fopChain returns a K5 block of n FOP operations, each consuming the
// previous one's result: the list scheduler's quadratic case.
func fopChain(n int) *ir.Block {
	b := &ir.Block{Ops: make([]*ir.Operation, n)}
	for i := range b.Ops {
		b.Ops[i] = &ir.Operation{Opcode: "FOP", Dests: []int{1}, Srcs: []int{1, 2}}
	}
	b.Renumber()
	return b
}

// joinedBlock concatenates generated K5 blocks into one block of about n
// operations, keeping only the last block's terminating branch.
func joinedBlock(n int, seed int64) (*ir.Block, error) {
	parts, err := program(machines.K5, n, seed)
	if err != nil {
		return nil, err
	}
	out := &ir.Block{}
	var term *ir.Operation
	for _, b := range parts {
		for _, op := range b.Ops {
			if op.Branch {
				term = op
				continue
			}
			out.Ops = append(out.Ops, op)
		}
	}
	if term != nil {
		out.Ops = append(out.Ops, term)
	}
	out.Renumber()
	return out, nil
}

// longSize returns the k-th of longBatches*longBatch/2 block sizes
// spaced evenly over [longMin, longMax].
func longSize(k int) int {
	n := longBatches * longBatch / 2
	return longMin + k*(longMax-longMin)/(n-1)
}

// longBlocks returns engine-long-blocks batch j: FOP chains and joined
// blocks alternating. Sizes come from an even ladder over [longMin,
// longMax], each batch pairing a short size with a long one, so every
// seed schedules the same size mix; the seed picks the joined blocks'
// contents.
func longBlocks(j int, seed int64) ([]*ir.Block, error) {
	n := longBatches * longBatch / 2
	out := make([]*ir.Block, 0, longBatch)
	for i := 0; i < longBatch/2; i++ {
		k := j + i*longBatches
		if i%2 == 1 {
			k = n - 1 - j - (i-1)*longBatches
		}
		size := longSize(k)
		b, err := joinedBlock(size, subSeed(seed, int64(k)))
		if err != nil {
			return nil, err
		}
		out = append(out, fopChain(size), b)
	}
	return out, nil
}

func countOps(blocks []*ir.Block) int {
	n := 0
	for _, b := range blocks {
		n += len(b.Ops)
	}
	return n
}
