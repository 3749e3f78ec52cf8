package rtable

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableBasics(t *testing.T) {
	rt := New("bus", 2)
	rt.Stage(0, 0, 1) // arbiter cycle 0
	rt.Stage(1, 1, 2) // data cycles 1-2
	if rt.Length() != 3 {
		t.Fatalf("Length = %d, want 3", rt.Length())
	}
	s := rt.String()
	if !strings.Contains(s, "X..") || !strings.Contains(s, ".XX") {
		t.Fatalf("String rendering wrong:\n%s", s)
	}
}

func TestTableStagePanics(t *testing.T) {
	rt := New("x", 1)
	for _, f := range []func(){
		func() { rt.Stage(1, 0, 1) },
		func() { rt.Stage(-1, 0, 1) },
		func() { rt.Stage(0, 63, 2) },
		func() { rt.Stage(0, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Stage accepted invalid arguments")
				}
			}()
			f()
		}()
	}
}

func TestConflictFree(t *testing.T) {
	// Single resource busy for 3 cycles: spacings 1,2 conflict, 3+ free.
	rt := New("simple", 1).Stage(0, 0, 3)
	for k := 1; k <= 2; k++ {
		if rt.ConflictFree(k) {
			t.Fatalf("spacing %d should conflict", k)
		}
	}
	if !rt.ConflictFree(3) || !rt.ConflictFree(64) || !rt.ConflictFree(100) {
		t.Fatal("large spacings should be conflict free")
	}
	if rt.ConflictFree(-1) {
		t.Fatal("negative spacing cannot be conflict free")
	}
}

func TestForbiddenLatenciesClassic(t *testing.T) {
	// The classic non-contiguous example: resource used at cycles 0 and 3.
	rt := New("classic", 1)
	rt.Stage(0, 0, 1).Stage(0, 3, 1)
	fl := rt.ForbiddenLatencies()
	if len(fl) != 1 || fl[0] != 3 {
		t.Fatalf("forbidden latencies = %v, want [3]", fl)
	}
	// Spacing 1 repeated collides transitively (ops 0 and 3 share cycle
	// 3), so the smallest sustainable interval is 2.
	if rt.MinInitiationInterval() != 2 {
		t.Fatalf("MII = %d, want 2", rt.MinInitiationInterval())
	}
}

func TestMIIFullyBusy(t *testing.T) {
	rt := New("block", 1).Stage(0, 0, 4)
	if got := rt.MinInitiationInterval(); got != 4 {
		t.Fatalf("MII of a 4-cycle blocking op = %d, want 4", got)
	}
}

func TestMIIRespectsMultiples(t *testing.T) {
	// Occupied at cycles 0 and 4: k=2 is conflict-free for one pair but
	// its multiple 4 collides, so MII must skip 2.
	rt := New("mult", 1)
	rt.Stage(0, 0, 1).Stage(0, 4, 1)
	if rt.ConflictFree(4) {
		t.Fatal("spacing 4 should conflict")
	}
	mii := rt.MinInitiationInterval()
	if mii == 2 || mii == 4 {
		t.Fatalf("MII = %d, but multiples of it collide", mii)
	}
	if mii != 3 {
		t.Fatalf("MII = %d, want 3", mii)
	}
}

func TestEmptyTable(t *testing.T) {
	rt := New("empty", 1)
	if rt.Length() != 0 || rt.MinInitiationInterval() != 1 || len(rt.ForbiddenLatencies()) != 0 {
		t.Fatal("empty table invariants broken")
	}
	if len(rt.Stages()) != 0 {
		t.Fatal("empty table has stages")
	}
}

func TestStagesRoundTrip(t *testing.T) {
	rt := New("rt", 3)
	rt.Stage(0, 0, 2).Stage(1, 2, 3).Stage(2, 1, 1).Stage(0, 5, 1)
	stages := rt.Stages()
	rebuilt := New("rb", 3)
	for _, s := range stages {
		rebuilt.Stage(s.Res, s.Start, s.Len)
	}
	for r := range rt.Rows {
		if rt.Rows[r] != rebuilt.Rows[r] {
			t.Fatalf("resource %d: %b != %b", r, rt.Rows[r], rebuilt.Rows[r])
		}
	}
}

func TestSchedulerSerializesBlockingOps(t *testing.T) {
	s := NewScheduler(1)
	stages := []Stage{{Res: 0, Start: 0, Len: 4}}
	t0 := s.EarliestIssue(0, stages)
	t1 := s.EarliestIssue(0, stages)
	t2 := s.EarliestIssue(0, stages)
	if t0 != 0 || t1 != 4 || t2 != 8 {
		t.Fatalf("blocking ops should serialize at 0,4,8; got %d,%d,%d", t0, t1, t2)
	}
}

func TestSchedulerPipelinedOverlap(t *testing.T) {
	// Two resources: arbiter (1 cycle) then data (1 cycle): II = 1.
	s := NewScheduler(2)
	stages := []Stage{{Res: 0, Start: 0, Len: 1}, {Res: 1, Start: 1, Len: 1}}
	times := make([]int64, 4)
	for i := range times {
		times[i] = s.EarliestIssue(0, stages)
	}
	for i, want := range []int64{0, 1, 2, 3} {
		if times[i] != want {
			t.Fatalf("pipelined issue %d at %d, want %d", i, times[i], want)
		}
	}
}

func TestSchedulerRespectsRequestTime(t *testing.T) {
	s := NewScheduler(1)
	stages := []Stage{{Res: 0, Start: 0, Len: 2}}
	if got := s.EarliestIssue(100, stages); got != 100 {
		t.Fatalf("idle unit should grant at request time, got %d", got)
	}
	if got := s.EarliestIssue(101, stages); got != 102 {
		t.Fatalf("overlapping request should be pushed to 102, got %d", got)
	}
	if got := s.EarliestIssue(-5, stages); got < 0 {
		t.Fatalf("negative request time should clamp to 0, got %d", got)
	}
}

func TestSchedulerWindowAdvance(t *testing.T) {
	s := NewScheduler(1)
	stages := []Stage{{Res: 0, Start: 0, Len: 2}}
	var last int64
	// Jump far beyond the window several times; scheduling must remain
	// monotone and conflict-free within each epoch.
	for _, at := range []int64{0, 10_000, 1_000_000, 50_000_000} {
		a := s.EarliestIssue(at, stages)
		b := s.EarliestIssue(at, stages)
		if a < at || b != a+2 {
			t.Fatalf("after jump to %d: got %d, %d", at, a, b)
		}
		if a < last {
			t.Fatal("time went backwards")
		}
		last = b
	}
}

func TestSchedulerPanicsOnBadResource(t *testing.T) {
	s := NewScheduler(1)
	defer func() {
		if recover() == nil {
			t.Fatal("EarliestIssue accepted out-of-range resource")
		}
	}()
	s.EarliestIssue(0, []Stage{{Res: 5, Start: 0, Len: 1}})
}

// Property: ConflictFree(k) is exactly "no resource has two ops k apart",
// verified against a brute-force bit check.
func TestQuickConflictFreeBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := New("q", 2)
		for i := 0; i < 6; i++ {
			rt.Stage(rng.Intn(2), rng.Intn(20), 1+rng.Intn(3))
		}
		for k := 0; k < 25; k++ {
			brute := true
			for _, row := range rt.Rows {
				for c := 0; c+k < 64; c++ {
					if row&(1<<uint(c)) != 0 && row&(1<<uint(c+k)) != 0 {
						brute = false
					}
				}
			}
			if rt.ConflictFree(k) != brute {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a scheduler never double-books a resource — replaying the
// grant times against a brute-force occupancy map finds no overlap.
func TestQuickSchedulerNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(2)
		occupied := map[int64]bool{} // res*1e9 + cycle
		at := int64(0)
		for i := 0; i < 200; i++ {
			at += int64(rng.Intn(3))
			stages := []Stage{
				{Res: 0, Start: 0, Len: 1 + rng.Intn(2)},
				{Res: 1, Start: 1, Len: 1 + rng.Intn(3)},
			}
			g := s.EarliestIssue(at, stages)
			if g < at {
				return false
			}
			for _, st := range stages {
				for c := 0; c < st.Len; c++ {
					key := int64(st.Res)*1_000_000_000 + g + int64(st.Start+c)
					if occupied[key] {
						return false
					}
					occupied[key] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialEntryPointsMatchEarliestIssue pins Query, Reserve and
// Grant to the part of EarliestIssue each one stands for. Two
// schedulers receive the same random history; then one calls
// EarliestIssue and the other the partial entry point, under the
// precondition the entry point documents. The grant, Issues and
// Conflicts must agree, and so must every grant and counter of a
// random run of later EarliestIssue calls. Far-future asks and
// non-monotone later asks make the 4096-cycle window slide and forget,
// so an entry point that slid the window differently would diverge.
func TestPartialEntryPointsMatchEarliestIssue(t *testing.T) {
	stagesOf := func(rng *rand.Rand) []Stage {
		st := []Stage{{Res: 0, Start: 0, Len: 1 + rng.Intn(6)}}
		if rng.Intn(3) > 0 {
			st = append(st, Stage{Res: 1, Start: rng.Intn(4), Len: 1 + rng.Intn(60)})
		}
		return st
	}
	span := func(st []Stage) int64 {
		var end int64
		for _, s := range st {
			if e := int64(s.Start + s.Len); e > end {
				end = e
			}
		}
		return end
	}
	ask := func(rng *rand.Rand, from int64) int64 {
		if rng.Intn(8) == 0 {
			return from + 4000 + rng.Int63n(20_000) // far future: slides the window
		}
		return from + rng.Int63n(300)
	}
	for _, op := range []string{"Query", "Reserve", "Grant"} {
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ref, got := NewScheduler(2), NewScheduler(2)
			var horizon, at int64 // latest reservation end; last ask
			for i := rng.Intn(40); i > 0; i-- {
				at = ask(rng, at-150)
				st := stagesOf(rng)
				g := ref.EarliestIssue(at, st)
				got.EarliestIssue(at, st)
				if e := g + span(st); e > horizon {
					horizon = e
				}
			}

			st := stagesOf(rng)
			var gRef, gGot, later int64
			switch op {
			case "Query":
				at = ask(rng, at-150)
				gRef = ref.EarliestIssue(at, st)
				gGot = got.Query(at, st)
				later = gRef + span(st) // the unreserved stages end here
			case "Reserve":
				at = horizon + rng.Int63n(6000)
				gRef = ref.EarliestIssue(at, st)
				got.Reserve(at, st)
				gGot = at
				later = 0 // reserved on both: any later ask is fair
			case "Grant":
				at = horizon + rng.Int63n(6000)
				gRef = ref.EarliestIssue(at, st)
				got.Grant(at, st)
				gGot = at
				later = at + span(st)
			}
			if gGot != gRef || got.Stats() != ref.Stats() {
				t.Fatalf("%s seed %d: grant %d stats %+v, EarliestIssue grant %d stats %+v",
					op, seed, gGot, got.Stats(), gRef, ref.Stats())
			}
			// Asks that pile up just after the floor build a queue long
			// enough for searches to slide the window; asks behind the
			// slid base then read forgotten reservations as free.
			for i := 0; i < 150; i++ {
				a := later + rng.Int63n(2000)
				if rng.Intn(20) == 0 {
					a += 4000 + rng.Int63n(20_000)
				}
				st := stagesOf(rng)
				if g, w := got.EarliestIssue(a, st), ref.EarliestIssue(a, st); g != w || got.Stats() != ref.Stats() {
					t.Fatalf("%s seed %d: later ask %d at %d granted %d stats %+v, want %d stats %+v",
						op, seed, i, a, g, got.Stats(), w, ref.Stats())
				}
			}
		}
	}
}

// TestRunFormMatchesStages pins the run form to the stage list it
// stands for. A two-row scheduler fed dead-time stage pairs
// {0,0,n},{1,0,n} and a one-row scheduler fed runs of n receive the
// same random sequence of all four entry points; every grant, the
// Stats and the one row against both rows must agree after each call.
// Far-future asks slide the window, asks behind the slid base read
// forgotten cycles, n = 0 reserves nothing, and asks at random cycles
// make runs cross word boundaries.
func TestRunFormMatchesStages(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pair, row := NewScheduler(2), NewScheduler(1)
		var at int64
		for i := 0; i < 400; i++ {
			switch r := rng.Intn(16); {
			case r == 0:
				at += 4000 + rng.Int63n(20_000) // far future: slides the window
			case r == 1:
				at = pair.base - rng.Int63n(300) // behind the window's base
			default:
				at += rng.Int63n(120) - 40
			}
			n := rng.Intn(63)
			if rng.Intn(10) == 0 {
				n = 0
			}
			st := []Stage{{Res: 0, Start: 0, Len: n}, {Res: 1, Start: 0, Len: n}}
			op := rng.Intn(4)
			var gPair, gRow int64
			switch op {
			case 0:
				gPair, gRow = pair.EarliestIssue(at, st), row.EarliestIssueRun(at, n)
			case 1:
				gPair, gRow = pair.Query(at, st), row.QueryRun(at, n)
			case 2:
				pair.Reserve(at, st)
				row.ReserveRun(at, n)
			case 3:
				pair.Grant(at, st)
				row.GrantRun(at, n)
			}
			if gPair != gRow || pair.Stats() != row.Stats() || pair.base != row.base {
				t.Fatalf("seed %d call %d (op %d, at %d, n %d): stage pair granted %d stats %+v base %d, run form %d stats %+v base %d",
					seed, i, op, at, n, gPair, pair.Stats(), pair.base, gRow, row.Stats(), row.base)
			}
			for r := 0; r < 2; r++ {
				for w := range row.window[0] {
					if pair.window[r][w] != row.window[0][w] {
						t.Fatalf("seed %d call %d: stage pair row %d word %d = %#x, run form row %#x",
							seed, i, r, w, pair.window[r][w], row.window[0][w])
					}
				}
			}
		}
	}
}
