package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// segments is the number of equal parts a measured window is split into.
// Throughput, CPU per op and peak memory are reported as the median over
// the parts, so a burst of noise from outside the process moves one part,
// not the figure.
const segments = 6

// loopStats is what one measured window of a load generator saw.
type loopStats struct {
	start time.Time
	seg   time.Duration // length of one segment
	wall  time.Duration // window start to the last completion

	lat               []float64       // per operation, ms
	latAt             []time.Duration // completion of each, from start
	blocks, ops       int64
	attempted, failed int64
	lastErr           error
	// segBlocks and segOps count the blocks and ops of each segment.
	segBlocks, segOps [segments]int64
}

// segmentOf returns the segment of an instant in the window, clamping
// instants past the window into the last segment.
func (s *loopStats) segmentOf(t time.Time) int {
	if s.seg <= 0 {
		return 0
	}
	i := int(t.Sub(s.start) / s.seg)
	if i < 0 {
		return 0
	}
	if i >= segments {
		return segments - 1
	}
	return i
}

// bounds returns the segment boundaries; the last segment ends at the
// last completion.
func (s *loopStats) bounds() [segments + 1]time.Time {
	var b [segments + 1]time.Time
	for i := range b {
		b[i] = s.start.Add(time.Duration(i) * s.seg)
	}
	if end := s.start.Add(s.wall); end.After(b[segments]) {
		b[segments] = end
	}
	return b
}

// record adds one completed operation.
func (s *loopStats) record(done time.Time, latency time.Duration, blocks, ops int, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		s.lastErr = err
		return
	}
	i := s.segmentOf(done)
	s.lat = append(s.lat, ms(latency))
	s.latAt = append(s.latAt, done.Sub(s.start))
	s.blocks += int64(blocks)
	s.ops += int64(ops)
	s.segBlocks[i] += int64(blocks)
	s.segOps[i] += int64(ops)
	if w := done.Sub(s.start); w > s.wall {
		s.wall = w
	}
}

// segmentRates returns the blocks per second of each segment.
func (s *loopStats) segmentRates() []float64 {
	b := s.bounds()
	out := make([]float64, segments)
	for i := range out {
		out[i] = float64(s.segBlocks[i]) / b[i+1].Sub(b[i]).Seconds()
	}
	return out
}

// work is one operation of a load generator; seg is the window segment
// it starts in, or -1 during warm-up. It returns the blocks and
// operations it scheduled and verified; an error counts it as failed.
// An operation that returns no blocks and no error is a side operation,
// such as a timed upload between scheduling calls: the loop neither
// counts nor times it.
type work func(worker, seg int) (blocks, ops int, err error)

// closedLoop runs workers that each send their next operation as soon as
// the previous one completes. Operations started during warm-up are not
// counted; the window then lasts window, and operations started in it
// run to completion.
func closedLoop(ctx context.Context, workers int, warmup, window time.Duration, op work) *loopStats {
	out := &loopStats{start: time.Now().Add(warmup), seg: window / segments}
	stop := out.start.Add(window)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(stop) {
					return
				}
				seg := -1
				if !t0.Before(out.start) {
					seg = out.segmentOf(t0)
				}
				blocks, ops, err := op(w, seg)
				t1 := time.Now()
				if seg < 0 || (blocks == 0 && err == nil) {
					continue
				}
				mu.Lock()
				out.record(t1, t1.Sub(t0), blocks, ops, err)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// openRecord is one open-loop operation's timing relative to when it was
// due.
type openRecord struct {
	lag, latency time.Duration
	backlog      int
	err          error
	blocks, ops  int
}

// openLoop sends n operations, operation i due at start+i*interval, from
// workers goroutines that take them in order. An operation is timed from
// when it was due, not from when a worker got to it, so a stall is
// charged to every operation that waited behind it.
func openLoop(ctx context.Context, start time.Time, interval time.Duration, n, workers int, op func(i int) (blocks, ops int, err error)) []openRecord {
	recs := make([]openRecord, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				blocks, ops, err := op(i)
				done := time.Now()
				// Operations due by now, not counting this one, that no
				// worker has taken yet.
				backlog := min(int(sent.Sub(start)/interval), n-1) - i
				if backlog < 0 {
					backlog = 0
				}
				recs[i] = openRecord{lag: sent.Sub(due), latency: done.Sub(due), backlog: backlog, err: err, blocks: blocks, ops: ops}
			}
		}()
	}
	wg.Wait()
	return recs
}

// procSample is one reading of a process's CPU time and resident set.
type procSample struct {
	t   time.Time
	cpu time.Duration
	rss int64
}

// procSampler reads a process's CPU time and resident set at a fixed
// period until stopped.
type procSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []procSample
	err     error
}

func startProcSampler(pid int, period time.Duration) *procSampler {
	s := &procSampler{stop: make(chan struct{}), done: make(chan struct{})}
	read := func() {
		cpu, err := cpuTime(pid)
		if err == nil {
			var rss int64
			if rss, err = rssBytes(pid); err == nil {
				s.samples = append(s.samples, procSample{t: time.Now(), cpu: cpu, rss: rss})
			}
		}
		if err != nil && s.err == nil {
			s.err = err
		}
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			read()
			select {
			case <-s.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends sampling; the samples are readable afterwards.
func (s *procSampler) Stop() error {
	close(s.stop)
	<-s.done
	return s.err
}

// cpuAt returns the CPU time of the first sample at or after t (the last
// sample when none is).
func (s *procSampler) cpuAt(t time.Time) time.Duration {
	for _, x := range s.samples {
		if !x.t.Before(t) {
			return x.cpu
		}
	}
	return s.samples[len(s.samples)-1].cpu
}

// minSliceSamples is the fewest latency samples a slice of the window
// needs for its own percentiles: enough that its p90 has minBeyond
// samples beyond it.
const minSliceSamples = 100

// latencyPercentile returns the p-th latency percentile of the window as
// the median over slices of each slice's percentile. A slice is the
// shortest run of whole seconds, in order, holding minSliceSamples
// samples; a short remainder joins the last slice. Host stalls on the
// machine this was tuned on came in bursts of a second or two, and the
// median keeps a burst to the slices it hit. With fewer than
// minSliceSamples samples in all, the window is one slice.
func (s *loopStats) latencyPercentile(p float64) float64 {
	var secs [][]float64
	for i, l := range s.lat {
		sec := int(s.latAt[i] / time.Second)
		if sec < 0 {
			sec = 0
		}
		for len(secs) <= sec {
			secs = append(secs, nil)
		}
		secs[sec] = append(secs[sec], l)
	}
	var slices [][]float64
	var cur []float64
	for _, xs := range secs {
		cur = append(cur, xs...)
		if len(cur) >= minSliceSamples {
			slices = append(slices, cur)
			cur = nil
		}
	}
	switch {
	case len(slices) == 0:
		slices = [][]float64{cur}
	case len(cur) > 0:
		slices[len(slices)-1] = append(slices[len(slices)-1], cur...)
	}
	per := make([]float64, len(slices))
	for i, xs := range slices {
		per[i] = percentile(sortedCopy(xs), p)
	}
	return median(per)
}

// sideUploads interleaves timed uploads into a closed loop's first
// worker, one every every of the window.
type sideUploads struct {
	every   time.Duration
	next    time.Time
	k       int
	upload  func(k int) error
	samples []float64
}

// due reports whether worker should run the next upload now.
func (u *sideUploads) due(worker, seg int) bool {
	return worker == 0 && seg >= 0 && !time.Now().Before(u.next)
}

// run times the next upload and schedules the one after it.
func (u *sideUploads) run() error {
	u.next = time.Now().Add(u.every)
	t0 := time.Now()
	err := u.upload(u.k)
	if err == nil {
		u.samples = append(u.samples, ms(time.Since(t0)))
	}
	u.k++
	return err
}

// warm runs op from a closed loop for d, measuring nothing.
func warm(ctx context.Context, workers int, d time.Duration, op work) {
	closedLoop(ctx, workers, d, 0, op)
}

// segmentFigures returns the median over the window's segments of the
// CPU milliseconds per 1 000 ops and of the peak resident set in MiB.
func segmentFigures(s *loopStats, p *procSampler) (cpuPerKop, peakMB float64) {
	b := s.bounds()
	var cpu, peak []float64
	for i := 0; i < segments; i++ {
		if s.segOps[i] > 0 {
			d := p.cpuAt(b[i+1]) - p.cpuAt(b[i])
			cpu = append(cpu, ms(d)/(float64(s.segOps[i])/1000))
		}
		var mx int64
		for _, x := range p.samples {
			if !x.t.Before(b[i]) && x.t.Before(b[i+1]) && x.rss > mx {
				mx = x.rss
			}
		}
		peak = append(peak, float64(mx)/(1<<20))
	}
	return median(cpu), median(peak)
}
