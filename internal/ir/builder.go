package ir

// Builder is a reusable dependence-graph constructor: it produces exactly
// the edges, in exactly the order, of BuildGraphTiming, but keeps its
// construction scratch — per-register writer/reader tables, the edge
// backings, the Graph itself — alive between blocks, so steady-state
// graph building allocates only when a block needs more capacity than
// any before it.
//
// Every edge entering operation i is added while i is processed, so the
// predecessor lists sit in one flat backing in add order, and the
// successor lists are a stable counting transpose of it. Retained edge
// storage is therefore bounded by the largest block built, not by the
// per-operation high-water marks of every block seen.
//
// Register tables are epoch-stamped instead of cleared: each Build bumps
// an epoch counter and a table entry is live only when its stamp matches,
// so resetting costs nothing regardless of how many registers earlier
// blocks touched. Blocks with negative register numbers (outside the
// dense table) fall back to the map-based BuildGraphTiming.
//
// The returned Graph borrows the builder's backings and is valid until
// the next Build. A Builder serves one goroutine at a time.
type Builder struct {
	graph Graph
	succs [][]Edge
	preds [][]Edge
	// in holds every edge grouped by target (add order); out is its
	// transpose grouped by source; outAt is the transpose's offsets.
	in    []Edge
	out   []Edge
	outAt []int32

	lastWriter  []int32
	writerEpoch []uint32
	readers     [][]int32
	readerEpoch []uint32
	epoch       uint32

	loadsSince []int32
}

// Build constructs the block's dependence graph (see BuildGraphTiming for
// the edge rules), reusing the builder's scratch.
func (bl *Builder) Build(b *Block, tm Timing) *Graph {
	n := len(b.Ops)
	maxReg := -1
	for _, op := range b.Ops {
		for _, r := range op.Srcs {
			if r < 0 {
				return BuildGraphTiming(b, tm)
			}
			if r > maxReg {
				maxReg = r
			}
		}
		for _, r := range op.Dests {
			if r < 0 {
				return BuildGraphTiming(b, tm)
			}
			if r > maxReg {
				maxReg = r
			}
		}
	}
	for len(bl.lastWriter) <= maxReg {
		bl.lastWriter = append(bl.lastWriter, 0)
		bl.writerEpoch = append(bl.writerEpoch, 0)
		bl.readers = append(bl.readers, nil)
		bl.readerEpoch = append(bl.readerEpoch, 0)
	}
	bl.epoch++
	if bl.epoch == 0 {
		// Stamp wrap: stale entries could alias the fresh epoch, so clear
		// every stamp once per 2^32 builds.
		for i := range bl.writerEpoch {
			bl.writerEpoch[i] = 0
			bl.readerEpoch[i] = 0
		}
		bl.epoch = 1
	}
	epoch := bl.epoch

	in := bl.in[:0]
	add := func(from, to int, kind DepKind, dist int) {
		if from != to {
			in = append(in, Edge{From: from, To: to, Kind: kind, MinDist: dist})
		}
	}

	lastStore := -1
	bl.loadsSince = bl.loadsSince[:0]

	for i, op := range b.Ops {
		for _, r := range op.Srcs {
			if bl.writerEpoch[r] == epoch {
				w := int(bl.lastWriter[r])
				dist := tm.FlowDist(b.Ops[w], op)
				if op.Cascaded {
					dist = 0
				}
				add(w, i, DepFlow, dist)
			}
			if bl.readerEpoch[r] != epoch {
				bl.readers[r] = bl.readers[r][:0]
				bl.readerEpoch[r] = epoch
			}
			bl.readers[r] = append(bl.readers[r], int32(i))
		}
		for _, r := range op.Dests {
			if bl.readerEpoch[r] == epoch {
				for _, rd := range bl.readers[r] {
					add(int(rd), i, DepAnti, 0)
				}
			}
			if bl.writerEpoch[r] == epoch {
				add(int(bl.lastWriter[r]), i, DepOutput, 1)
			}
			bl.lastWriter[r] = int32(i)
			bl.writerEpoch[r] = epoch
			bl.readers[r] = bl.readers[r][:0]
			bl.readerEpoch[r] = epoch
		}
		switch op.Mem {
		case MemLoad:
			if lastStore >= 0 {
				add(lastStore, i, DepMem, 1)
			}
			bl.loadsSince = append(bl.loadsSince, int32(i))
		case MemStore:
			if lastStore >= 0 {
				add(lastStore, i, DepMem, 1)
			}
			for _, l := range bl.loadsSince {
				add(int(l), i, DepMem, 0)
			}
			lastStore = i
			bl.loadsSince = bl.loadsSince[:0]
		}
		if op.Branch {
			for j := 0; j < i; j++ {
				add(j, i, DepControl, 0)
			}
		}
	}
	bl.in = in

	if cap(bl.outAt) < n+1 {
		bl.succs = make([][]Edge, n)
		bl.preds = make([][]Edge, n)
		bl.outAt = make([]int32, n+1)
	}
	succs, preds, outAt := bl.succs[:n], bl.preds[:n], bl.outAt[:n+1]
	if cap(bl.out) < len(in) {
		bl.out = make([]Edge, len(in))
	}
	out := bl.out[:len(in)]

	// Slice the predecessor lists off the add-order backing and count
	// each operation's successors.
	for i := range outAt {
		outAt[i] = 0
	}
	lo := 0
	for i := range preds {
		hi := lo
		for hi < len(in) && in[hi].To == i {
			outAt[in[hi].From+1]++
			hi++
		}
		preds[i] = in[lo:hi:hi]
		lo = hi
	}
	// Transpose: a scan of the add order is stable, so each successor
	// list keeps the order BuildGraphTiming appends in.
	for i := 0; i < n; i++ {
		outAt[i+1] += outAt[i]
	}
	for i := range succs {
		succs[i] = out[outAt[i]:outAt[i]:outAt[i+1]]
	}
	for _, e := range in {
		succs[e.From] = append(succs[e.From], e)
	}

	bl.graph = Graph{Block: b, Succs: succs, Preds: preds}
	return &bl.graph
}
