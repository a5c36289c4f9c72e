package mdes_test

import (
	"context"
	"errors"
	"testing"

	"mdes"
	"mdes/internal/obs"
	"mdes/internal/workload"
)

func newTestEngine(t testing.TB, name mdes.BuiltinName) *mdes.Engine {
	t.Helper()
	machine, err := mdes.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	mdes.Optimize(compiled, mdes.LevelFull)
	eng, err := mdes.NewEngine(compiled)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testBlocks(t testing.TB, name mdes.BuiltinName, numOps int) []*mdes.Block {
	t.Helper()
	prog, err := workload.Generate(workload.Config{Machine: name, NumOps: numOps, Seed: 1996})
	if err != nil {
		t.Fatal(err)
	}
	return prog.Blocks
}

// ScheduleBlocks must produce identical per-block results at every
// parallelism level, equal to the plain serial scheduler's.
func TestEngineScheduleBlocksMatchesSerial(t *testing.T) {
	for _, name := range []mdes.BuiltinName{mdes.SuperSPARC, mdes.K5} {
		eng := newTestEngine(t, name)
		blocks := testBlocks(t, name, 2000)

		s := mdes.NewScheduler(eng.Compiled())
		serial, serialTotal, err := s.ScheduleAll(blocks)
		if err != nil {
			t.Fatal(err)
		}

		for _, par := range []int{1, 2, 4, 8} {
			results, total, err := eng.ScheduleBlocks(context.Background(), blocks, par)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", name, par, err)
			}
			if total != serialTotal {
				t.Fatalf("%s parallelism %d: counters %+v, serial %+v", name, par, total, serialTotal)
			}
			for bi, r := range results {
				if r.Length != serial[bi].Length {
					t.Fatalf("%s parallelism %d block %d: length %d, serial %d",
						name, par, bi, r.Length, serial[bi].Length)
				}
				for oi, c := range r.Issue {
					if c != serial[bi].Issue[oi] {
						t.Fatalf("%s parallelism %d block %d op %d: cycle %d, serial %d",
							name, par, bi, oi, c, serial[bi].Issue[oi])
					}
				}
			}
		}

		// Totals must have accumulated every released context's counters:
		// 4 runs over the same blocks.
		if got, want := eng.Totals().Attempts, 4*serialTotal.Attempts; got != want {
			t.Fatalf("%s engine totals attempts = %d, want %d", name, got, want)
		}
	}
}

func TestEngineScheduleBlocksEmptyAndDefaults(t *testing.T) {
	eng := newTestEngine(t, mdes.SuperSPARC)
	results, total, err := eng.ScheduleBlocks(context.Background(), nil, 0)
	if err != nil || len(results) != 0 || total.Attempts != 0 {
		t.Fatalf("empty schedule: results=%v total=%+v err=%v", results, total, err)
	}
	blocks := testBlocks(t, mdes.SuperSPARC, 200)
	// parallelism 0 → GOMAXPROCS; must still work.
	if _, _, err := eng.ScheduleBlocks(context.Background(), blocks, 0); err != nil {
		t.Fatal(err)
	}
}

func TestEngineScheduleBlocksCancellation(t *testing.T) {
	eng := newTestEngine(t, mdes.SuperSPARC)
	blocks := testBlocks(t, mdes.SuperSPARC, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := eng.ScheduleBlocks(ctx, blocks, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// cancelOnStart is a Tracer that cancels a context as each block starts,
// so the cancellation lands inside that block's cycle loop.
type cancelOnStart struct {
	mdes.Tracer
	cancel context.CancelFunc
}

func (c cancelOnStart) StartBlock(block int64, machine string, numOps int) *obs.BlockTrace {
	c.cancel()
	return c.Tracer.StartBlock(block, machine, numOps)
}

// Cancelling ScheduleBlocks' context stops the block in flight, not only
// the blocks after it: the scheduler polls ctx before its first attempt,
// so a block whose context is cancelled as it starts attempts nothing,
// and its trace record and flight entry close with length -1.
func TestEngineScheduleBlocksCancelsInsideBlock(t *testing.T) {
	machine, err := mdes.Builtin(mdes.K5)
	if err != nil {
		t.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	mdes.Optimize(compiled, mdes.LevelFull)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tracer, ring := mdes.NewRingTracer(4, 1)
	rec := mdes.NewFlightRecorder(mdes.FlightConfig{})
	eng, err := mdes.NewEngine(compiled, mdes.WithTracer(cancelOnStart{tracer, cancel}), mdes.WithFlight(rec))
	if err != nil {
		t.Fatal(err)
	}
	chain := &mdes.Block{Ops: make([]*mdes.IROperation, 4096)}
	for i := range chain.Ops {
		chain.Ops[i] = &mdes.IROperation{Opcode: "FOP", Dests: []int{1}, Srcs: []int{1, 2}}
	}
	chain.Renumber()
	if _, _, err := eng.ScheduleBlocks(ctx, []*mdes.Block{chain}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	recs := ring.Snapshot()
	if len(recs) != 1 || recs[0].Length != -1 || recs[0].Counters.Attempts != 0 {
		t.Fatalf("trace records %+v, want one with length -1 and no attempts", recs)
	}
	if snap := rec.Snapshot(); len(snap.Recent) != 1 || snap.Recent[0].Length != -1 {
		t.Fatalf("flight entries %+v, want one with length -1", snap.Recent)
	}
}

func TestEngineScheduleBlocksPropagatesError(t *testing.T) {
	eng := newTestEngine(t, mdes.SuperSPARC)
	blocks := testBlocks(t, mdes.SuperSPARC, 300)
	// An opcode missing from the MDES must surface as an error, not a hang.
	bad := &mdes.Block{Ops: []*mdes.IROperation{{Opcode: "NOSUCH"}}}
	blocks = append(blocks, bad)
	if _, _, err := eng.ScheduleBlocks(context.Background(), blocks, 4); err == nil {
		t.Fatal("expected error for unknown opcode")
	}
}

func TestEngineQuerySessions(t *testing.T) {
	eng := newTestEngine(t, mdes.SuperSPARC)
	q := eng.Query()
	ok, err := q.CanIssueTogether("ADD1", "LD")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ADD1 + LD should dual-issue on SuperSPARC")
	}
	if q.Counters().Attempts == 0 {
		t.Fatal("query session recorded no attempts")
	}
	q.Close()
	if eng.Totals().Attempts == 0 {
		t.Fatal("closed query did not fold counters into engine totals")
	}
}

// NewEngine must reject descriptions that fail validation.
func TestNewEngineValidates(t *testing.T) {
	machine, err := mdes.Builtin(mdes.SuperSPARC)
	if err != nil {
		t.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	compiled.Trees[0].Options = nil // corrupt: tree with no options
	if _, err := mdes.NewEngine(compiled); err == nil {
		t.Fatal("NewEngine accepted an invalid description")
	}
}
