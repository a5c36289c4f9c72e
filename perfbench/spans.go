package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"mdes/internal/obs/flight"
)

// now is the benchmark's span clock: the runtime's monotonic nanosecond
// counter, cheap enough to read around single probe calls.
func now() int64 { return flight.Nanotime() }

// span is one timed interval of the traced run. Parent is the index of
// the enclosing span, or -1 for a root (one traced call).
type span struct {
	Name       string
	Parent     int
	Start, End int64
}

// spanLog records the spans of the serial decomposition pass. It is
// single-goroutine; spans stay in memory until write.
type spanLog struct {
	spans []span
}

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: now()})
	return len(l.spans) - 1
}

// end closes the span opened by begin.
func (l *spanLog) end(id int) { l.spans[id].End = now() }

// add records an already-measured interval. Per-call probe timings are
// summed per block and laid end to end from start, so their total, not
// their position, is what the span carries.
func (l *spanLog) add(name string, parent int, start, dur int64) {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: start, End: start + dur})
}

// selfTimes sums every span's self time per span name: its duration
// minus the part of its interval covered by its children.
func (l *spanLog) selfTimes() map[string]int64 {
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := map[string]int64{}
	for i, s := range l.spans {
		self[s.Name] += (s.End - s.Start) - covered(l.spans, children[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the child intervals,
// clipped to [lo, hi).
func covered(spans []span, kids []int, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			sum += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// write dumps the spans as tab-separated lines: index, parent, name,
// start and duration in nanoseconds relative to the first span.
func (l *spanLog) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var t0 int64
	if len(l.spans) > 0 {
		t0 = l.spans[0].Start
	}
	fmt.Fprintln(bw, "id\tparent\tname\tstart_ns\tdur_ns")
	for i, s := range l.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\n", i, s.Parent, s.Name, s.Start-t0, s.End-s.Start)
	}
	return bw.Flush()
}

// clockCost estimates the cost of one now() reading, so per-call probe
// timings can subtract the clock they are measured with.
func clockCost() int64 {
	const n = 1 << 14
	best := int64(1 << 62)
	for r := 0; r < 5; r++ {
		t0 := now()
		for i := 0; i < n; i++ {
			now()
		}
		if d := (now() - t0) / n; d < best {
			best = d
		}
	}
	return best
}
