package main

import "testing"

// A span's self time is its duration minus the union of its children's
// intervals, clipped to the span.
func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	l := spanLog{spans: []span{
		{Name: "call", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the root
		{Name: "d", Parent: 2, Start: 25, End: 35},
	}}
	self := l.selfTimes()
	want := map[string]int64{"call": 100 - 40 - 10, "a": 20, "b": 30 - 10, "c": 30, "d": 10}
	for name, w := range want {
		if got := self[name]; got != w {
			t.Errorf("self(%s) = %d, want %d", name, got, w)
		}
	}
}
