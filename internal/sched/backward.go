package sched

import (
	"mdes/internal/ir"
	"mdes/internal/obs"
)

// ScheduleBlockBackward schedules a block bottom-up: operations are placed
// from the dependence sinks toward the sources, each at the latest
// feasible cycle. This is the "backward-scheduling list scheduler" of the
// paper's §7, for which the usage-time shift should pick each resource's
// LATEST usage time as the constant (opt.Backward): conflicts then
// concentrate at time zero from this scheduler's point of view.
//
// Schedules are reported on the same forward time axis as ScheduleBlock
// (smallest issue cycle normalized to zero) and respect exactly the same
// dependences and resource constraints.
func (s *Scheduler) ScheduleBlockBackward(b *ir.Block) (*Result, error) {
	n := len(b.Ops)
	if n == 0 {
		return &Result{Issue: []int{}}, nil
	}
	k, err := s.begin(b, obs.PhaseBackward)
	if err != nil {
		return nil, err
	}
	ar := &s.cx.Arena

	// depth[i]: latency-weighted longest path from any source to i — the
	// mirror of the forward scheduler's height priority.
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

	// On the reversed axis tau = -issue, an edge from->to with distance d
	// (issue(to) >= issue(from)+d) becomes tau(from) >= tau(to)+d: the
	// roles of predecessors and successors swap, and so does the tie
	// order — equal depths go to the later operation first.
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
	if err := s.cycles(&k, order, nsuccs, ar.Ints(n), tau); err != nil {
		return s.fail(&k, err)
	}

	// Normalize to a forward axis starting at zero.
	maxTau := 0
	for _, t := range tau {
		maxTau = max(maxTau, t)
	}
	for i, t := range tau {
		k.res.Issue[i] = maxTau - t
	}
	return s.finish(&k)
}
