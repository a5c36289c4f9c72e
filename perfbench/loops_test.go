package main

import (
	"context"
	"testing"
	"time"
)

// A stall in one open-loop operation must be charged to every operation
// due behind it: latency runs from when an operation was due, not from
// when a worker sent it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		n        = 10
		interval = 2 * time.Millisecond
		stall    = 40 * time.Millisecond
	)
	start := time.Now().Add(5 * time.Millisecond)
	recs := openLoop(context.Background(), start, interval, n, 1, func(i int) (int, int, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return 1, 1, nil
	})
	for i := 1; i < n; i++ {
		// Operation i was due at i*interval and could only start once the
		// stalled operation 0 finished, at stall or later.
		min := stall - time.Duration(i)*interval
		if recs[i].lag < min || recs[i].latency < min {
			t.Errorf("op %d: lag %v latency %v, want both >= %v", i, recs[i].lag, recs[i].latency, min)
		}
		if recs[i].latency < recs[i].lag {
			t.Errorf("op %d: latency %v shorter than lag %v", i, recs[i].latency, recs[i].lag)
		}
	}
	// When operation 1 was sent every other operation was already due.
	if got := recs[1].backlog; got != n-2 {
		t.Errorf("backlog at op 1 = %d, want %d", got, n-2)
	}
	if recs[0].lag > stall/2 {
		t.Errorf("op 0 sent %v late on an idle generator", recs[0].lag)
	}
}

func TestClosedLoopCountsOnlyTheWindow(t *testing.T) {
	warmup, window := 30*time.Millisecond, 60*time.Millisecond
	var calls, warmCalls int
	s := closedLoop(context.Background(), 1, warmup, window, func(_, seg int) (int, int, error) {
		calls++
		if seg < 0 {
			warmCalls++
		}
		time.Sleep(time.Millisecond)
		return 2, 3, nil
	})
	if warmCalls == 0 {
		t.Fatal("no warm-up calls")
	}
	if int(s.attempted) != calls-warmCalls || s.blocks != 2*s.attempted || s.ops != 3*s.attempted {
		t.Errorf("counted %d ops %d blocks %d of %d window calls", s.attempted, s.ops, s.blocks, calls-warmCalls)
	}
	var segBlocks int64
	for _, b := range s.segBlocks {
		segBlocks += b
	}
	if segBlocks != s.blocks {
		t.Errorf("segments hold %d blocks, window %d", segBlocks, s.blocks)
	}
}

// A burst of slow operations confined to one second must not move the
// window's percentile: each slice of whole seconds holding
// minSliceSamples samples gets its own percentile, and the median of
// those is the figure.
func TestLatencyPercentileKeepsABurstToItsSlice(t *testing.T) {
	s := &loopStats{start: time.Now(), seg: time.Second}
	for sec := 0; sec < 5; sec++ {
		for i := 0; i < minSliceSamples; i++ {
			lat := time.Millisecond
			if sec == 2 {
				lat = 50 * time.Millisecond
			}
			done := s.start.Add(time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond)
			s.record(done, lat, 1, 1, nil)
		}
	}
	if got := s.latencyPercentile(90); got != 1 {
		t.Errorf("p90 = %v ms, want 1", got)
	}
	// Too few samples for two slices: the window is one slice.
	few := &loopStats{start: s.start, seg: time.Second}
	for i := 0; i < 10; i++ {
		few.record(s.start.Add(time.Duration(i)*time.Second), time.Duration(i+1)*time.Millisecond, 1, 1, nil)
	}
	if got := few.latencyPercentile(90); got != 9 {
		t.Errorf("p90 of 1..10 ms = %v, want 9", got)
	}
}
