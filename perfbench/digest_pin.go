package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// pinnedDigests holds, per workload and seed, the digest of the
// reference schedules (issue cycles, lengths and the five paper counters
// of every distinct input) recorded when the benchmark was defined. A
// different digest means the program now produces other schedules or
// counters for the same inputs.
//
//go:embed digests.json
var pinnedDigests []byte

// checkDigest records the run's digest and counts a mismatch when the
// seed has a pinned digest that differs.
func checkDigest(o *options, got string, out *outcome) error {
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	out.notes["digest"] = got
	want, ok := pins[o.workload][strconv.FormatInt(o.seed, 10)]
	if !ok {
		out.notes["digest_pinned"] = "none for this seed"
		return nil
	}
	out.notes["digest_pinned"] = want
	if want != got {
		out.mismatches++
		out.notes["digest_mismatch"] = fmt.Sprintf("reference digest %s, pinned %s", got, want)
	}
	return nil
}
