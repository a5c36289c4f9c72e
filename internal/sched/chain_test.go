package sched

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mdes/internal/ir"
	"mdes/internal/machines"
	"mdes/internal/obs"
)

// chainSizes are the K5 FOP chain lengths of the scaling benchmark and
// gate: a dependence chain makes every cycle but one per latency shadow
// idle, the case a per-cycle rescan of the unscheduled operations makes
// quadratic.
var chainSizes = []int{4096, 8192, 16384}

func k5Scheduler(tb testing.TB) *Scheduler {
	tb.Helper()
	return New(compiled(tb, machines.MustLoad(machines.K5)))
}

// BenchmarkScheduleChain list-schedules one K5 FOP chain per iteration.
func BenchmarkScheduleChain(b *testing.B) {
	s := k5Scheduler(b)
	for _, n := range chainSizes {
		chain := fopChain(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.ScheduleBlock(chain); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/op-scheduled")
		})
	}
}

// Scheduling a chain costs time linear in its length: one attempt per
// operation, and a 4x longer chain takes at most 8x as long (best of
// five), where a per-cycle rescan takes about 16x.
func TestScheduleChainScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate; skipped in -short")
	}
	s := k5Scheduler(t)
	best := map[int]time.Duration{}
	for _, n := range chainSizes {
		chain := fopChain(n)
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			r, err := s.ScheduleBlock(chain)
			d := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			if r.Counters.Attempts != int64(n) {
				t.Fatalf("chain %d: %d attempts, want one per operation", n, r.Counters.Attempts)
			}
			if b, ok := best[n]; !ok || d < b {
				best[n] = d
			}
		}
	}
	lo, hi := chainSizes[0], chainSizes[len(chainSizes)-1]
	ratio := float64(best[hi]) / float64(best[lo])
	t.Logf("best of 5: %v", best)
	t.Logf("%d/%d ops: %.2fx the time for %dx the operations", hi, lo, ratio, hi/lo)
	if ratio > 8 {
		t.Fatalf("chain of %d ops took %.2fx the time of %d ops; linear is %dx, the bound 8x", hi, ratio, lo, hi/lo)
	}
}

// Cancelling the scheduler's context stops a block within 1024 attempts:
// the block fails with context.Canceled through the failure epilogue, so
// its trace record closes with length -1.
func TestScheduleBlockCancelsWithinBlock(t *testing.T) {
	s := k5Scheduler(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Ctx = ctx
	attempts := 0
	s.OnAttempt = func(*ir.Operation, int64, bool) {
		if attempts++; attempts == 100 {
			cancel()
		}
	}
	ring := obs.NewRingSink(1)
	s.Tracer = obs.New(ring)
	_, err := s.ScheduleBlock(fopChain(16384))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled block returned %v, want context.Canceled", err)
	}
	if attempts >= 100+1024+1 {
		t.Fatalf("%d attempts after cancelling at attempt 100; the loop polls every 1024", attempts)
	}
	recs := ring.Snapshot()
	if len(recs) != 1 || recs[0].Length != -1 || recs[0].Counters.Attempts != int64(attempts) {
		t.Fatalf("cancelled block's trace record: %+v, want length -1 and %d attempts", recs, attempts)
	}

	// An uncancelled context changes nothing.
	s.Ctx, s.OnAttempt, s.Tracer = context.Background(), nil, nil
	if _, err := s.ScheduleBlock(fopChain(2048)); err != nil {
		t.Fatal(err)
	}
}
