package sched

import (
	"container/heap"
	"fmt"

	"mdes/internal/check"
	"mdes/internal/ir"
	"mdes/internal/obs"
)

// ScheduleBlockOpDriven schedules a block with operation-driven list
// scheduling: operations are taken in priority order and each is probed at
// successive cycles from its earliest start until its constraint is
// satisfiable. The paper names "operation scheduling" (with iterative
// modulo scheduling) as a technique under which "the number of scheduling
// attempts required per operation can increase significantly" (§4) —
// every failed per-cycle probe here is an attempt, so long-latency shadows
// and busy resources translate directly into more attempts than the
// cycle-driven scheduler performs. Schedules are legal under exactly the
// same dependences and resource constraints (and are often identical, but
// the algorithms' tie-breaking differs, so this is not guaranteed).
func (s *Scheduler) ScheduleBlockOpDriven(b *ir.Block) (*Result, error) {
	n := len(b.Ops)
	if n == 0 {
		return &Result{Issue: []int{}}, nil
	}
	k, err := s.begin(b, obs.PhaseOpDriven)
	if err != nil {
		return nil, err
	}
	res := k.res
	npreds := s.cx.Arena.Ints(n)
	estart := s.cx.Arena.Ints(n)

	// Ready queue ordered by (height desc, index asc).
	pq := &opHeap{height: s.height(&k)}
	for i, p := range k.g.Preds {
		npreds[i] = len(p)
		if npreds[i] == 0 {
			heap.Push(pq, i)
		}
	}

	// Batch fast path: with no per-attempt instrumentation attached, probe
	// 64-cycle windows in one CheckWindow pass per window instead of
	// re-entering Check per cycle. The backend's contract makes this
	// accounting-equivalent to the per-cycle loop, so results and
	// counters are identical.
	batch := s.cx.Batch != nil && s.cx.Obs == nil && s.cx.Prof == nil && k.bt == nil && s.OptionsHist == nil && s.OnAttempt == nil
	scheduled := 0
	for pq.Len() > 0 {
		i := heap.Pop(pq).(int)
		op := k.g.Block.Ops[i]
		con := s.mdes.ConstraintFor(k.opIdxs[i], op.Cascaded)
		limit := estart[i] + 64*n + 1024
		cycle, found := estart[i], false
		if batch {
			for lo := cycle; lo <= limit && !found; lo += 64 {
				var sel check.Selection
				if sel, cycle, found = s.cx.CheckWindow(con, lo, min(lo+64, limit+1), &res.Counters); found {
					s.cx.Reserve(sel)
				}
			}
		} else {
			for ; cycle <= limit; cycle++ {
				if sel, ok := s.attempt(&k, i, con, cycle); ok {
					s.cx.Reserve(sel)
					found = true
					break
				}
			}
		}
		if !found {
			return s.fail(&k, fmt.Errorf("sched: op %d found no cycle", i))
		}
		res.Issue[i] = cycle
		scheduled++
		for _, e := range k.g.Succs[i] {
			if v := cycle + e.MinDist; v > estart[e.To] {
				estart[e.To] = v
			}
			npreds[e.To]--
			if npreds[e.To] == 0 {
				heap.Push(pq, e.To)
			}
		}
	}
	if scheduled != n {
		return s.fail(&k, fmt.Errorf("sched: deadlock, scheduled %d of %d", scheduled, n))
	}
	return s.finish(&k)
}

// opHeap is a max-heap of operation indices by height, ties to lower index.
type opHeap struct {
	items  []int
	height []int
}

func (h *opHeap) Len() int { return len(h.items) }
func (h *opHeap) Less(a, b int) bool {
	x, y := h.items[a], h.items[b]
	if h.height[x] != h.height[y] {
		return h.height[x] > h.height[y]
	}
	return x < y
}
func (h *opHeap) Swap(a, b int)      { h.items[a], h.items[b] = h.items[b], h.items[a] }
func (h *opHeap) Push(x interface{}) { h.items = append(h.items, x.(int)) }
func (h *opHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
