// Package resctx provides the session layer between one immutable compiled
// machine description and its many concurrent consumers.
//
// The compiled lowlevel.MDES is compile-once, validate-once data: after
// Freeze it is never mutated, so any number of goroutines may share one
// copy (the paper's premise is that one description serves a compiler's
// hottest inner loop; in a long-running service the same artifact must
// serve many inner loops at once). All per-client mutable state — the
// conflict checker (internal/check backend instance), the instrumentation
// counters, the observability buffer, and the selection scratch buffers —
// lives in a Context instead. Consumers (the list scheduler, the query
// interface, the modulo scheduler) borrow a Context, run against the
// shared MDES, and return it.
//
// A Pool recycles Contexts via sync.Pool and aggregates the counters of
// every returned Context, giving a service both allocation-free steady
// state and global instrumentation totals without any per-check
// synchronization: counters and metrics are accumulated locally in the
// borrowed Context and folded into the pool's atomic totals (and, when
// configured, into an obs.Registry) exactly once, on Put. Put and
// Context.Release are idempotent, so a double release can neither
// double-count a context's counters nor hand the same context to two
// borrowers.
package resctx

import (
	"sync"
	"sync/atomic"

	"mdes/internal/check"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/obs"
	"mdes/internal/obs/flight"
	"mdes/internal/obs/profile"
	"mdes/internal/probeplan"
	"mdes/internal/rumap"
	"mdes/internal/stats"
)

// Context is the per-client mutable state for scheduling and querying
// against one shared compiled MDES. A Context must not be used from more
// than one goroutine at a time; borrow one per goroutine instead.
type Context struct {
	// Checker answers all issue-time conflict probes for this context.
	Checker check.Checker
	// RU is non-nil exactly when Checker is the default RU-map backend: it
	// is the same underlying map, exposed so hot paths and snapshot-based
	// tooling can skip interface dispatch (the devirtualized fast path).
	// Alternate backends leave it nil; use the Check/Reserve/Release
	// helpers, which pick the right path.
	RU *rumap.Map
	// PP is non-nil exactly when Checker is the probe-plan backend: the
	// same flat prober, exposed so hot paths skip interface dispatch.
	PP *probeplan.Prober
	// Batch is non-nil when the checker advertises Capabilities.Batch:
	// the same backend instance through its multi-cycle probing
	// interface. Schedulers take the window fast path through it and
	// fall back to per-cycle Check otherwise.
	Batch check.BatchProber
	// Arena is the per-context scratch allocator for schedule-sized
	// scratch slices; the schedulers carve all per-block state from it,
	// so the steady-state probe loop allocates nothing.
	Arena Arena
	// Builder is the schedulers' reusable dependence-graph constructor.
	// It lives here, not in a Scheduler, so its scratch survives the
	// short-lived Schedulers a pooled context serves.
	Builder ir.Builder
	// Counters accumulates the attempts / options checked / resource
	// checks performed through this context since it was borrowed.
	Counters stats.Counters
	// Obs, when non-nil, is the observability buffer the schedulers bump
	// on the hot path (per-phase, per-class, per-resource metrics); it is
	// merged into the pool's obs.Registry on release. Nil when the pool
	// has no registry (observability disabled) and on standalone
	// contexts.
	Obs *obs.Local
	// Flight, when non-nil, is the per-context flight-recorder ring the
	// schedulers append one compact entry per block to; it is merged into
	// the pool's flight.Recorder on release. Nil when the pool has no
	// recorder and on standalone contexts.
	Flight *flight.Local
	// Prof, when non-nil, is the per-context conflict-attribution profile
	// buffer (per-constraint / per-tree / per-option probe frequencies);
	// it is merged into the pool's profile.Profile on release. Nil when
	// the pool has no profile and on standalone contexts.
	Prof *profile.Local
	// Slots is a reusable (resource, cycle) buffer for reservation
	// snapshots (rumap.Map.AppendReservedSlots).
	Slots [][2]int
	// Sels is a reusable selection scratch for multi-reserve probes.
	Sels []check.Selection

	pool *Pool
	// released guards the release path: folding a context's counters
	// into the pool totals must happen at most once per borrow (see
	// Pool.Put).
	released bool
}

// New returns a standalone (unpooled) Context with the default RU-map
// checker for a machine with numRes resources. Release on a standalone
// Context is a no-op, so single-client code can treat pooled and unpooled
// Contexts uniformly.
func New(numRes int) *Context {
	c := &Context{}
	c.adopt(check.NewRUMap(numRes))
	return c
}

// NewFor returns a standalone (unpooled) Context whose checker comes from
// the factory.
func NewFor(f *check.Factory) *Context {
	c := &Context{}
	c.adopt(f.New())
	return c
}

// adopt installs a checker, wiring the devirtualized RU and probe-plan
// fast paths and the batch-probing capability when the backend offers
// them.
func (c *Context) adopt(ck check.Checker) {
	c.Checker = ck
	c.RU, c.PP, c.Batch = nil, nil, nil
	switch b := ck.(type) {
	case *check.RUMap:
		c.RU = b.Map()
	case *check.ProbePlan:
		c.PP = b.Prober()
	}
	if ck.Capabilities().Batch {
		if bp, ok := ck.(check.BatchProber); ok {
			c.Batch = bp
		}
	}
}

// Check probes the checker, devirtualized for the default and probe-plan
// backends, accounting into ctr (per-block or per-call counters; callers
// fold them into c.Counters themselves).
func (c *Context) Check(con *lowlevel.Constraint, issue int, ctr *stats.Counters) (check.Selection, bool) {
	if c.RU != nil {
		sel, ok := c.RU.Check(con, issue, ctr)
		return check.Selection{Selection: sel}, ok
	}
	if c.PP != nil {
		sel, ok := c.PP.Check(con, issue, ctr)
		return check.Selection{Selection: sel}, ok
	}
	return c.Checker.Check(con, issue, ctr)
}

// CheckWindow probes the half-open cycle window [lo, hi) through the
// backend's batch interface, devirtualized for the probe-plan backend.
// Callers gate on c.Batch != nil.
func (c *Context) CheckWindow(con *lowlevel.Constraint, lo, hi int, ctr *stats.Counters) (check.Selection, int, bool) {
	if c.PP != nil {
		sel, issue, ok := c.PP.CheckWindow(con, lo, hi, ctr)
		return check.Selection{Selection: sel}, issue, ok
	}
	return c.Batch.CheckWindow(con, lo, hi, ctr)
}

// Reserve applies a successful Selection, devirtualized for the default
// and probe-plan backends.
func (c *Context) Reserve(sel check.Selection) {
	if c.RU != nil {
		c.RU.Reserve(sel.Selection)
		return
	}
	if c.PP != nil {
		c.PP.Reserve(sel.Selection)
		return
	}
	c.Checker.Reserve(sel)
}

// ReleaseSel undoes a previous Reserve. Gate on
// Checker.Capabilities().CanRelease before calling on alternate backends.
func (c *Context) ReleaseSel(sel check.Selection) {
	if c.RU != nil {
		c.RU.Release(sel.Selection)
		return
	}
	if c.PP != nil {
		c.PP.Release(sel.Selection)
		return
	}
	c.Checker.Release(sel)
}

// Explain attributes a failed Check to its blocking resource slot, when
// the backend can (Capabilities.CanExplain).
func (c *Context) Explain(con *lowlevel.Constraint, issue int) (check.Conflict, bool) {
	if c.RU != nil {
		return c.RU.ExplainConflict(con, issue)
	}
	if c.PP != nil {
		return c.PP.Explain(con, issue)
	}
	return c.Checker.Explain(con, issue)
}

// BlockingRes returns just the resource index a failed Check would be
// attributed to, or -1: the cheap slice of Explain for metrics attribution
// (obs.Local.ConflictAt keys on the resource alone), skipping conflict
// provenance and Conflict construction on backends that can.
func (c *Context) BlockingRes(con *lowlevel.Constraint, issue int) int {
	if c.PP != nil {
		return c.PP.BlockerRes(con, issue)
	}
	if conf, ok := c.Explain(con, issue); ok {
		return conf.Res
	}
	return -1
}

// BlockingTreeRes attributes a failed Check to the position (within the
// constraint) of the first unsatisfiable tree and its blocking resource:
// the profile-grade slice of Explain (tree + resource, no provenance).
// Returns (-1, -1) on backends that cannot attribute, and (-1, res) when
// only resource attribution is available.
func (c *Context) BlockingTreeRes(con *lowlevel.Constraint, issue int) (int, int) {
	if c.PP != nil {
		return c.PP.BlockerTreeRes(con, issue)
	}
	if c.RU != nil {
		return c.RU.BlockerTreeRes(con, issue)
	}
	if conf, ok := c.Explain(con, issue); ok {
		return -1, conf.Res
	}
	return -1, -1
}

// Reset clears the checker's reservations, counters, and observability
// buffer, retaining all storage.
func (c *Context) Reset() {
	c.Checker.Reset()
	c.Counters = stats.Counters{}
	if c.Obs != nil {
		c.Obs.Reset()
	}
	c.Prof.Reset()
	c.Slots = c.Slots[:0]
	c.Sels = c.Sels[:0]
	c.Arena.Reset()
}

// Release returns the Context to the Pool it was borrowed from, folding
// its counters into the pool totals. Releasing a standalone Context, or
// releasing the same Context twice, is a no-op. The Context must not be
// used after Release.
func (c *Context) Release() {
	if c.pool != nil {
		c.pool.Put(c)
	}
}

// Pool recycles Contexts for one compiled MDES and aggregates the
// instrumentation of every Context returned to it.
type Pool struct {
	newChecker func() check.Checker
	p          sync.Pool

	attempts   atomic.Int64
	options    atomic.Int64
	checks     atomic.Int64
	conflicts  atomic.Int64
	backtracks atomic.Int64

	reg  *obs.Registry
	fr   *flight.Recorder
	prof *profile.Profile
}

// NewPool returns a Context pool with the default RU-map checker for a
// machine with numRes resources.
func NewPool(numRes int) *Pool {
	return newPool(func() check.Checker { return check.NewRUMap(numRes) })
}

// NewPoolFor returns a Context pool whose contexts carry checkers built by
// the factory (one checker instance per pooled context; backend state
// shared through the factory).
func NewPoolFor(f *check.Factory) *Pool {
	return newPool(f.New)
}

func newPool(newChecker func() check.Checker) *Pool {
	pl := &Pool{newChecker: newChecker}
	pl.p.New = func() any {
		c := &Context{pool: pl}
		c.adopt(pl.newChecker())
		return c
	}
	return pl
}

// SetMetrics attaches an observability registry: every Context borrowed
// after this call carries an obs.Local merged into reg on release, and
// the registry's in-flight gauge tracks borrowed contexts. Must be
// called before the first Get (mdes.NewEngine configures it at
// construction).
func (p *Pool) SetMetrics(reg *obs.Registry) { p.reg = reg }

// Metrics returns the attached registry, or nil.
func (p *Pool) Metrics() *obs.Registry { return p.reg }

// SetFlight attaches a flight recorder: every Context borrowed after this
// call carries a flight.Local ring merged into rec on release. Must be
// called before the first Get (mdes.NewEngine configures it at
// construction).
func (p *Pool) SetFlight(rec *flight.Recorder) { p.fr = rec }

// Flight returns the attached flight recorder, or nil.
func (p *Pool) Flight() *flight.Recorder { return p.fr }

// SetProfile attaches a conflict-attribution profile: every Context
// borrowed after this call carries a profile.Local merged into prof on
// release. Must be called before the first Get (mdes.NewEngine configures
// it at construction).
func (p *Pool) SetProfile(prof *profile.Profile) { p.prof = prof }

// Profile returns the attached profile, or nil.
func (p *Pool) Profile() *profile.Profile { return p.prof }

// Get borrows a clean Context. The caller must return it with Put (or
// Context.Release) when done.
func (p *Pool) Get() *Context {
	c := p.p.Get().(*Context)
	c.released = false
	if p.reg != nil {
		if c.Obs == nil {
			c.Obs = p.reg.NewLocal()
		}
		p.reg.AddInFlight(1)
	}
	if p.fr != nil && c.Flight == nil {
		c.Flight = p.fr.NewLocal()
	}
	if p.prof != nil && c.Prof == nil {
		c.Prof = p.prof.NewLocal()
	}
	return c
}

// Put folds the Context's counters into the pool totals (and its
// observability buffer into the registry, when configured), resets it,
// and makes it available for reuse. Put is idempotent per borrow: a
// second Put of the same Context is a no-op, so its counters cannot be
// double-counted and the pool cannot hand the same Context to two
// borrowers.
func (p *Pool) Put(c *Context) {
	if c.released {
		return
	}
	c.released = true
	p.attempts.Add(c.Counters.Attempts)
	p.options.Add(c.Counters.OptionsChecked)
	p.checks.Add(c.Counters.ResourceChecks)
	p.conflicts.Add(c.Counters.Conflicts)
	p.backtracks.Add(c.Counters.Backtracks)
	if p.reg != nil {
		p.reg.Merge(c.Obs)
		p.reg.AddInFlight(-1)
	}
	if p.fr != nil {
		p.fr.Merge(c.Flight)
	}
	if p.prof != nil {
		p.prof.Merge(c.Prof)
	}
	c.Reset()
	p.p.Put(c)
}

// Totals returns the aggregated counters of every Context returned to the
// pool so far. Contexts currently borrowed are not included until Put.
func (p *Pool) Totals() stats.Counters {
	return stats.Counters{
		Attempts:       p.attempts.Load(),
		OptionsChecked: p.options.Load(),
		ResourceChecks: p.checks.Load(),
		Conflicts:      p.conflicts.Load(),
		Backtracks:     p.backtracks.Load(),
	}
}
