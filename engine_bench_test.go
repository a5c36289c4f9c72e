package mdes_test

import (
	"context"
	"fmt"
	"testing"

	"mdes"
	"mdes/internal/workload"
)

// BenchmarkScheduleBlocksParallel measures Engine.ScheduleBlocks wall-clock
// over the multi-block workload corpus at parallelism 1, 2, 4 and 8: one
// frozen compiled description, N goroutines borrowing pooled contexts —
// once through the default RU-map backend and once through the probe-plan
// compilation. All backends share one scheduler, so the two differ only
// in the cost per probe (probeplan >= 2x blocks/s on K5). Per-block
// results are identical at every level and across backends (asserted once
// per sub-benchmark); speedup tracks min(parallelism, GOMAXPROCS) since
// block scheduling is CPU-bound and share-nothing. EXPERIMENTS.md records
// representative numbers.
func BenchmarkScheduleBlocksParallel(b *testing.B) {
	for _, name := range []mdes.BuiltinName{mdes.SuperSPARC, mdes.K5} {
		machine, err := mdes.Builtin(name)
		if err != nil {
			b.Fatal(err)
		}
		compiled := mdes.Compile(machine, mdes.FormAndOr)
		mdes.Optimize(compiled, mdes.LevelFull)
		prog, err := workload.GenerateParallel(workload.Config{Machine: name, NumOps: 20000, Seed: 1996}, 4)
		if err != nil {
			b.Fatal(err)
		}
		blocks := make([]*mdes.Block, len(prog.Blocks))
		copy(blocks, prog.Blocks)

		ref, err := mdes.NewEngine(compiled)
		if err != nil {
			b.Fatal(err)
		}
		serial, _, err := ref.ScheduleBlocks(context.Background(), blocks, 1)
		if err != nil {
			b.Fatal(err)
		}

		for _, kind := range []mdes.CheckerKind{mdes.CheckerRUMap, mdes.CheckerProbePlan} {
			eng, err := mdes.NewEngine(compiled, mdes.WithChecker(kind))
			if err != nil {
				b.Fatal(err)
			}
			for _, par := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/p%d", name, kind, par), func(b *testing.B) {
					var results []*mdes.Result
					for i := 0; i < b.N; i++ {
						var err error
						results, _, err = eng.ScheduleBlocks(context.Background(), blocks, par)
						if err != nil {
							b.Fatal(err)
						}
					}
					for bi, r := range results {
						if r.Length != serial[bi].Length {
							b.Fatalf("block %d: parallel length %d != serial %d", bi, r.Length, serial[bi].Length)
						}
					}
					b.ReportMetric(float64(len(blocks))*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
				})
			}
		}
	}
}
