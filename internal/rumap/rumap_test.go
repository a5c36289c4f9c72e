package rumap

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/stats"
)

const miniSrc = `
machine Mini {
    resource Decoder[3];
    resource M;
    resource WrPt[2];

    class load {
        use M @ 0;
        one_of WrPt @ 1;
        one_of Decoder[0..2] @ -1;
    }
    operation LD class load latency 1;
}
`

func compileMini(t *testing.T, form lowlevel.Form) *lowlevel.MDES {
	t.Helper()
	m, err := hmdes.Load("mini", miniSrc)
	if err != nil {
		t.Fatal(err)
	}
	return lowlevel.Compile(m, form)
}

func TestRowGrowthBothDirections(t *testing.T) {
	m := New(4)
	if m.Busy(0, 5) {
		t.Fatalf("empty map busy")
	}
	if !m.reserveBit(1, 10) {
		t.Fatalf("reserve failed")
	}
	if !m.reserveBit(2, -7) {
		t.Fatalf("negative-cycle reserve failed")
	}
	if !m.Busy(1, 10) || !m.Busy(2, -7) {
		t.Fatalf("reservations lost after growth")
	}
	if m.reserveBit(1, 10) {
		t.Fatalf("double reserve succeeded")
	}
	m.Reset()
	if m.Busy(1, 10) || m.Busy(2, -7) {
		t.Fatalf("Reset did not clear")
	}
}

func TestCheckReserveRelease(t *testing.T) {
	ll := compileMini(t, lowlevel.FormAndOr)
	m := New(ll.NumResources)
	con := ll.Constraints[0]
	var c stats.Counters

	sel, ok := m.Check(con, 0, &c)
	if !ok {
		t.Fatalf("empty map check failed")
	}
	if c.Attempts != 1 {
		t.Fatalf("Attempts = %d", c.Attempts)
	}
	// First option of each tree is free: 3 options checked (one per tree),
	// 3 resource checks.
	if c.OptionsChecked != 3 || c.ResourceChecks != 3 {
		t.Fatalf("counters = %+v", c)
	}
	m.Reserve(sel)

	// Second load at the same cycle: M is busy, first tree fails all its
	// (single) option -> overall failure.
	sel2, ok := m.Check(con, 0, &c)
	if ok {
		t.Fatalf("second load at same cycle should conflict on M: %+v", sel2)
	}

	// At cycle 1 the load's M@1 is free, but WrPt[0]@2 and Decoder[0]@0...
	// nothing overlaps (first load used M@0, WrPt0@1, Dec0@-1). WrPt tree at
	// issue 1 uses WrPt@2: free. Decoder@0: free.
	if _, ok := m.Check(con, 1, &c); !ok {
		t.Fatalf("load at cycle 1 should fit")
	}

	m.Release(sel)
	if _, ok := m.Check(con, 0, &c); !ok {
		t.Fatalf("after Release the original cycle should fit again")
	}
}

func TestGreedyPicksLowestNumbered(t *testing.T) {
	ll := compileMini(t, lowlevel.FormAndOr)
	m := New(ll.NumResources)
	con := ll.Constraints[0]
	var c stats.Counters

	sel1, _ := m.Check(con, 0, &c)
	m.Reserve(sel1)
	// Tree order: M, WrPt, Decoder. First load chose WrPt[0], Decoder[0].
	if sel1.Chosen[1] != 0 || sel1.Chosen[2] != 0 {
		t.Fatalf("first selection = %v", sel1.Chosen)
	}
	// Release M so a second load can go at cycle 0 (simulating a second
	// memory port machine would be needed otherwise); instead issue at a
	// different cycle and check decoder fallback: reserve Decoder[0] at -1
	// manually via a second op at cycle 0 is blocked by M. Use cycle 0 with
	// M released.
	m.releaseOption(con.Trees[0].Options[0], 0)
	sel2, ok := m.Check(con, 0, &c)
	if !ok {
		t.Fatalf("check failed")
	}
	if sel2.Chosen[1] != 1 || sel2.Chosen[2] != 1 {
		t.Fatalf("second selection should fall to next port/decoder: %v", sel2.Chosen)
	}
}

func TestCountsShortCircuit(t *testing.T) {
	ll := compileMini(t, lowlevel.FormAndOr)
	m := New(ll.NumResources)
	con := ll.Constraints[0]
	var c stats.Counters
	sel, _ := m.Check(con, 0, &c)
	m.Reserve(sel)
	before := c
	_, ok := m.Check(con, 0, &c)
	if ok {
		t.Fatalf("expected conflict")
	}
	// M tree has 1 option, 1 usage: the failed check should cost exactly
	// 1 option and 1 resource check (short-circuit at first OR-tree).
	if c.OptionsChecked-before.OptionsChecked != 1 || c.ResourceChecks-before.ResourceChecks != 1 {
		t.Fatalf("failed attempt cost: %+v -> %+v", before, c)
	}
}

func TestDoubleReservePanics(t *testing.T) {
	ll := compileMini(t, lowlevel.FormAndOr)
	m := New(ll.NumResources)
	con := ll.Constraints[0]
	var c stats.Counters
	sel, _ := m.Check(con, 0, &c)
	m.Reserve(sel)
	defer func() {
		if recover() == nil {
			t.Fatalf("double Reserve did not panic")
		}
	}()
	m.Reserve(sel)
}

func TestPackedOptionChecks(t *testing.T) {
	// Hand-build a packed option: resources {0,2} at time 0 and {1} at 1.
	o := &lowlevel.Option{Masks: []lowlevel.CycleMask{
		{Time: 0, Word: 0, Mask: 0b101},
		{Time: 1, Word: 0, Mask: 0b010},
	}}
	m := New(8)
	var c stats.Counters
	if !m.OptionAvailable(o, 0, &c) {
		t.Fatalf("packed option should be free")
	}
	if c.ResourceChecks != 2 {
		t.Fatalf("packed checks = %d, want 2 (one per cycle mask)", c.ResourceChecks)
	}
	m.reserveOption(o, 0)
	if !m.Busy(0, 0) || !m.Busy(2, 0) || !m.Busy(1, 1) {
		t.Fatalf("packed reserve wrong: %v", m.ReservedSlots())
	}
	if m.OptionAvailable(o, 0, &c) {
		t.Fatalf("packed option should conflict with itself")
	}
	// Shifted by 2 cycles it is free.
	if !m.OptionAvailable(o, 2, &c) {
		t.Fatalf("packed option at offset should be free")
	}
	m.releaseOption(o, 0)
	if len(m.ReservedSlots()) != 0 {
		t.Fatalf("release left slots: %v", m.ReservedSlots())
	}
}

func TestPackedDoubleReservePanics(t *testing.T) {
	o := &lowlevel.Option{Masks: []lowlevel.CycleMask{{Time: 0, Word: 0, Mask: 1}}}
	m := New(4)
	m.reserveOption(o, 0)
	defer func() {
		if recover() == nil {
			t.Fatalf("packed double reservation did not panic")
		}
	}()
	m.reserveOption(o, 0)
}

func TestReservedSlots(t *testing.T) {
	ll := compileMini(t, lowlevel.FormAndOr)
	m := New(ll.NumResources)
	var c stats.Counters
	sel, _ := m.Check(ll.Constraints[0], 5, &c)
	m.Reserve(sel)
	slots := m.ReservedSlots()
	// M@5, WrPt[0]@6, Decoder[0]@4.
	if len(slots) != 3 {
		t.Fatalf("slots = %v", slots)
	}
}

// Property: for any random reserve pattern, OR-form and AND/OR-form checks
// of the same class agree on feasibility, and when feasible they reserve
// exactly the same slots (the paper's "exact same schedule" guarantee).
func TestQuickFormsEquivalent(t *testing.T) {
	mach, err := hmdes.Load("mini", miniSrc)
	if err != nil {
		t.Fatal(err)
	}
	orM := lowlevel.Compile(mach, lowlevel.FormOR)
	aoM := lowlevel.Compile(mach, lowlevel.FormAndOr)

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orMap := New(orM.NumResources)
		aoMap := New(aoM.NumResources)
		// Pre-reserve a random pattern identically in both maps.
		for i := 0; i < 8; i++ {
			res := r.Intn(orM.NumResources)
			cyc := r.Intn(4) - 1
			if !orMap.Busy(res, cyc) {
				orMap.reserveBit(res, cyc)
				aoMap.reserveBit(res, cyc)
			}
		}
		var c1, c2 stats.Counters
		for issue := -1; issue <= 3; issue++ {
			s1, ok1 := orMap.Check(orM.Constraints[0], issue, &c1)
			s2, ok2 := aoMap.Check(aoM.Constraints[0], issue, &c2)
			if ok1 != ok2 {
				return false
			}
			if ok1 {
				orMap.Reserve(s1)
				aoMap.Reserve(s2)
				// Both must have reserved identical slots.
				a, b := orMap.ReservedSlots(), aoMap.ReservedSlots()
				if len(a) != len(b) {
					return false
				}
				for k := range a {
					if !b[k] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCheckScalarVsPacked(b *testing.B) {
	mach, err := hmdes.Load("mini", miniSrc)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, packed bool) {
		ll := lowlevel.Compile(mach, lowlevel.FormAndOr)
		if packed {
			for _, o := range ll.Options {
				for _, u := range o.Usages {
					o.Masks = append(o.Masks, lowlevel.CycleMask{
						Time: u.Time, Word: u.Res / 64, Mask: 1 << uint(u.Res%64),
					})
				}
			}
			ll.Packed = true
		}
		m := New(ll.NumResources)
		var c stats.Counters
		con := ll.Constraints[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sel, ok := m.Check(con, i%64, &c)
			if ok {
				m.Reserve(sel)
				m.Release(sel)
			}
		}
	}
	b.Run("scalar", func(b *testing.B) { run(b, false) })
	b.Run("packed", func(b *testing.B) { run(b, true) })
}

func TestAppendReservedSlotsMatchesMap(t *testing.T) {
	ll := compileMini(t, lowlevel.FormAndOr)
	m := New(ll.NumResources)
	var c stats.Counters
	sel, _ := m.Check(ll.Constraints[0], 5, &c)
	m.Reserve(sel)
	want := m.ReservedSlots()
	got := m.AppendReservedSlots(nil)
	if len(got) != len(want) {
		t.Fatalf("append returned %d slots, map has %d", len(got), len(want))
	}
	for _, s := range got {
		if !want[s] {
			t.Fatalf("append returned slot %v not in map %v", s, want)
		}
	}
}

// The append-into variant must be allocation-free once the caller's buffer
// has capacity — it replaces a map[[2]int]bool built fresh per call on the
// query hot path.
func TestAppendReservedSlotsNoAlloc(t *testing.T) {
	ll := compileMini(t, lowlevel.FormAndOr)
	m := New(ll.NumResources)
	var c stats.Counters
	sel, _ := m.Check(ll.Constraints[0], 5, &c)
	m.Reserve(sel)
	buf := m.AppendReservedSlots(nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = m.AppendReservedSlots(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendReservedSlots into a sized buffer allocates %.1f times per call, want 0", allocs)
	}
}

func TestExplainConflictAttribution(t *testing.T) {
	ll := compileMini(t, lowlevel.FormAndOr)
	m := New(ll.NumResources)
	con := ll.Constraints[0]
	var c stats.Counters

	if _, found := m.ExplainConflict(con, 0); found {
		t.Fatalf("empty map reported a conflict")
	}
	sel, ok := m.Check(con, 0, &c)
	if !ok {
		t.Fatalf("empty map check failed")
	}
	m.Reserve(sel)

	conf, found := m.ExplainConflict(con, 0)
	if !found {
		t.Fatalf("reserved map reported no conflict")
	}
	// The first unsatisfiable tree is the single-option M @ 0 use.
	mRes := -1
	for i, name := range ll.ResourceNames {
		if name == "M" {
			mRes = i
		}
	}
	if conf.Res != mRes || conf.Time != 0 {
		t.Fatalf("conflict = %+v, want res M (%d) at time 0", conf, mRes)
	}
	if conf.Tree == "" || conf.Src == "" {
		t.Fatalf("conflict lacks provenance: %+v", conf)
	}
	blocked := con.Trees[0]
	if conf.Tree != blocked.Name {
		t.Fatalf("conflict tree %q, want %q", conf.Tree, blocked.Name)
	}
	if conf.Src != blocked.Options[0].Src {
		t.Fatalf("conflict src %q, want %q", conf.Src, blocked.Options[0].Src)
	}
}

// The window grows downward by prepending doubled row blocks; every
// reservation made before the growth must keep its absolute cycle through
// the base shift. This drives the growth path far past the original base
// and then exercises Release, Busy (peek), and snapshots against it.
func TestNegativeWindowGrowthKeepsReservations(t *testing.T) {
	ll := compileMini(t, lowlevel.FormAndOr)
	m := New(ll.NumResources)
	con := ll.Constraints[0]
	var c stats.Counters

	// Anchor a reservation near cycle 0 (its Decoder usage sits at -1).
	sel0, ok := m.Check(con, 0, &c)
	if !ok {
		t.Fatalf("anchor check failed")
	}
	m.Reserve(sel0)
	before := m.ReservedSlots()

	// Force several rounds of downward doubling, far below the base.
	var deep []Selection
	for _, issue := range []int{-3, -17, -90, -400} {
		sel, ok := m.Check(con, issue, &c)
		if !ok {
			t.Fatalf("check at %d failed", issue)
		}
		m.Reserve(sel)
		deep = append(deep, sel)
	}

	// The anchor's slots survive every base shift.
	for s := range before {
		if !m.Busy(s[0], s[1]) {
			t.Fatalf("slot %v lost after downward growth", s)
		}
	}
	// peek must not report phantom reservations in the fresh rows.
	if m.Busy(0, -2) || m.Busy(0, -399) {
		t.Fatalf("phantom reservation in grown rows")
	}

	// Release of deep reservations clears exactly their slots.
	for _, sel := range deep {
		m.Release(sel)
	}
	after := m.ReservedSlots()
	if len(after) != len(before) {
		t.Fatalf("slots after deep release = %d, want %d", len(after), len(before))
	}
	for s := range before {
		if !after[s] {
			t.Fatalf("anchor slot %v missing after deep release", s)
		}
	}
	// The deep cycles must be checkable again.
	if _, ok := m.Check(con, -400, &c); !ok {
		t.Fatalf("deep cycle not reusable after release")
	}
}

// AppendReservedSlots reports absolute cycles; after the base shifts
// downward, previously-snapshotted slots must re-appear at identical
// absolute coordinates.
func TestAppendReservedSlotsStableAcrossGrowth(t *testing.T) {
	m := New(3)
	if !m.reserveBit(1, 4) || !m.reserveBit(2, 0) {
		t.Fatalf("seed reservations failed")
	}
	snap1 := m.AppendReservedSlots(nil)
	// Grow downward well past the original base.
	if !m.reserveBit(0, -64) {
		t.Fatalf("downward reserve failed")
	}
	snap2 := m.AppendReservedSlots(snap1[:0])
	want := map[[2]int]bool{{1, 4}: true, {2, 0}: true, {0, -64}: true}
	if len(snap2) != len(want) {
		t.Fatalf("snapshot = %v", snap2)
	}
	for _, s := range snap2 {
		if !want[s] {
			t.Fatalf("unexpected slot %v after growth", s)
		}
	}
}

// Selections borrow their Chosen slices from the map's arena: each stays
// intact while later Checks append to it, appending to one never reaches
// its neighbour, and once Reset has recycled the arena a Check/Reserve
// loop of the same size allocates nothing.
func TestSelectionArena(t *testing.T) {
	ll := compileMini(t, lowlevel.FormAndOr)
	m := New(ll.NumResources)
	con := ll.Constraints[0]
	var c stats.Counters
	loop := func() []Selection {
		var sels []Selection
		for cycle := 0; cycle < 64; cycle++ {
			sel, ok := m.Check(con, cycle, &c)
			if !ok {
				t.Fatalf("cycle %d: load does not fit", cycle)
			}
			m.Reserve(sel)
			sels = append(sels, sel)
		}
		return sels
	}
	sels := loop()
	want := append([]int(nil), sels[0].Chosen...)
	_ = append(sels[0].Chosen, 99)
	for i, sel := range sels {
		if !slices.Equal(sel.Chosen, want) {
			t.Fatalf("selection %d: chosen %v, want %v", i, sel.Chosen, want)
		}
	}
	for _, sel := range sels {
		m.Release(sel)
	}
	allocs := testing.AllocsPerRun(10, func() {
		m.Reset()
		for cycle := 0; cycle < 64; cycle++ {
			sel, _ := m.Check(con, cycle, &c)
			m.Reserve(sel)
		}
	})
	if allocs != 0 {
		t.Fatalf("Check/Reserve after Reset allocates %.1f times per 64 checks, want 0", allocs)
	}
}
