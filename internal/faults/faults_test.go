package faults

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestScheduleValidation is the table covering the window edge cases:
// zero-length and inverted windows, negative starts, out-of-range
// rates, and overlapping down windows for the same site (including
// overlaps that only appear once a flap is expanded into cycles). A
// site outside the deployment is caught later, by Compile (see
// TestCompileRejectsUnknownSite).
func TestScheduleValidation(t *testing.T) {
	cases := []struct {
		name    string
		sched   Schedule
		wantErr string // substring; empty means valid
	}{
		{
			name: "valid single outage",
			sched: Schedule{Outages: []Outage{
				{Site: "FRA", Start: 20 * time.Minute, End: 40 * time.Minute},
			}},
		},
		{
			name: "valid overlapping outages on different sites",
			sched: Schedule{Outages: []Outage{
				{Site: "FRA", Start: 10 * time.Minute, End: 30 * time.Minute},
				{Site: "SYD", Start: 20 * time.Minute, End: 50 * time.Minute},
			}},
		},
		{
			name: "valid back-to-back windows same site",
			sched: Schedule{Outages: []Outage{
				{Site: "FRA", Start: 10 * time.Minute, End: 20 * time.Minute},
				{Site: "FRA", Start: 20 * time.Minute, End: 30 * time.Minute},
			}},
		},
		{
			name: "zero-length outage",
			sched: Schedule{Outages: []Outage{
				{Site: "FRA", Start: 20 * time.Minute, End: 20 * time.Minute},
			}},
			wantErr: "is empty",
		},
		{
			name: "inverted outage",
			sched: Schedule{Outages: []Outage{
				{Site: "FRA", Start: 40 * time.Minute, End: 20 * time.Minute},
			}},
			wantErr: "is empty",
		},
		{
			name: "negative start",
			sched: Schedule{Outages: []Outage{
				{Site: "FRA", Start: -time.Minute, End: 20 * time.Minute},
			}},
			wantErr: "negative time",
		},
		{
			name: "overlapping outages same site",
			sched: Schedule{Outages: []Outage{
				{Site: "FRA", Start: 10 * time.Minute, End: 30 * time.Minute},
				{Site: "FRA", Start: 25 * time.Minute, End: 40 * time.Minute},
			}},
			wantErr: "overlapping down windows",
		},
		{
			name: "flap cycle overlaps outage same site",
			sched: Schedule{
				Outages: []Outage{{Site: "FRA", Start: 12 * time.Minute, End: 14 * time.Minute}},
				Flaps: []Flap{{
					Site: "FRA", Start: 0, End: 30 * time.Minute,
					Period: 10 * time.Minute, DownFrac: 0.5,
				}},
			},
			wantErr: "overlapping down windows",
		},
		{
			name: "valid flap interleaves outage same site",
			sched: Schedule{
				// Flap is down [0,5) [10,15) [20,25); outage fits the gap.
				Outages: []Outage{{Site: "FRA", Start: 6 * time.Minute, End: 9 * time.Minute}},
				Flaps: []Flap{{
					Site: "FRA", Start: 0, End: 30 * time.Minute,
					Period: 10 * time.Minute, DownFrac: 0.5,
				}},
			},
		},
		{
			name: "flap zero period",
			sched: Schedule{Flaps: []Flap{{
				Site: "FRA", Start: 0, End: 30 * time.Minute, DownFrac: 0.5,
			}}},
			wantErr: "non-positive period",
		},
		{
			name: "flap down-fraction above one",
			sched: Schedule{Flaps: []Flap{{
				Site: "FRA", Start: 0, End: 30 * time.Minute,
				Period: 10 * time.Minute, DownFrac: 1.5,
			}}},
			wantErr: "down-fraction",
		},
		{
			name: "zero-length flap envelope",
			sched: Schedule{Flaps: []Flap{{
				Site: "FRA", Start: 10 * time.Minute, End: 10 * time.Minute,
				Period: time.Minute, DownFrac: 0.5,
			}}},
			wantErr: "is empty",
		},
		{
			name: "burst rate zero",
			sched: Schedule{Bursts: []LossBurst{{
				Site: "FRA", Start: 0, End: time.Minute,
			}}},
			wantErr: "rate",
		},
		{
			name: "burst rate above one",
			sched: Schedule{Bursts: []LossBurst{{
				Site: "FRA", Start: 0, End: time.Minute, Rate: 1.2,
			}}},
			wantErr: "rate",
		},
		{
			name: "burst fraction out of range",
			sched: Schedule{Bursts: []LossBurst{{
				Site: "FRA", Start: 0, End: time.Minute, Rate: 0.5, Fraction: -0.1,
			}}},
			wantErr: "fraction",
		},
		{
			name: "zero-length burst",
			sched: Schedule{Bursts: []LossBurst{{
				Site: "FRA", Start: time.Minute, End: time.Minute, Rate: 0.5,
			}}},
			wantErr: "is empty",
		},
		{
			name: "slowdown no-op",
			sched: Schedule{Slowdowns: []Slowdown{{
				Site: "FRA", Start: 0, End: time.Minute,
			}}},
			wantErr: "no-op",
		},
		{
			name: "slowdown negative add",
			sched: Schedule{Slowdowns: []Slowdown{{
				Site: "FRA", Start: 0, End: time.Minute, AddRTT: -time.Millisecond,
			}}},
			wantErr: "negative RTT",
		},
		{
			name: "valid slowdown factor only",
			sched: Schedule{Slowdowns: []Slowdown{{
				Site: "FRA", Start: 0, End: time.Minute, Factor: 3,
			}}},
		},
		{
			name: "partition fraction zero",
			sched: Schedule{Partitions: []Partition{{
				Site: "FRA", Start: 0, End: time.Minute,
			}}},
			wantErr: "fraction",
		},
		{
			name: "zero-length partition",
			sched: Schedule{Partitions: []Partition{{
				Site: "FRA", Start: time.Minute, End: time.Minute, Fraction: 0.5,
			}}},
			wantErr: "is empty",
		},
		{
			// An exact duplicate is the degenerate overlap: same site,
			// same window, twice. Must be rejected, not merged.
			name: "duplicate outage same site",
			sched: Schedule{Outages: []Outage{
				{Site: "FRA", Start: 10 * time.Minute, End: 30 * time.Minute},
				{Site: "FRA", Start: 10 * time.Minute, End: 30 * time.Minute},
			}},
			wantErr: "overlapping down windows",
		},
		{
			name: "duplicate flaps same site",
			sched: Schedule{Flaps: []Flap{
				{Site: "FRA", Start: 0, End: 30 * time.Minute, Period: 10 * time.Minute, DownFrac: 0.5},
				{Site: "FRA", Start: 0, End: 30 * time.Minute, Period: 10 * time.Minute, DownFrac: 0.5},
			}},
			wantErr: "overlapping down windows",
		},
		{
			// Flap down cycles are [0,5) [10,15) [20,25); the outage
			// touches two of them at both boundaries. Half-open windows
			// make touching legal — only true overlap is a bug.
			name: "outage touches flap cycles on both ends",
			sched: Schedule{
				Outages: []Outage{{Site: "FRA", Start: 5 * time.Minute, End: 10 * time.Minute}},
				Flaps: []Flap{{
					Site: "FRA", Start: 0, End: 30 * time.Minute,
					Period: 10 * time.Minute, DownFrac: 0.5,
				}},
			},
		},
		{
			// A period longer than the envelope yields a single cycle
			// clipped to the envelope — unusual but well-defined, so it
			// validates.
			name: "flap period longer than envelope",
			sched: Schedule{Flaps: []Flap{{
				Site: "FRA", Start: 0, End: 30 * time.Minute,
				Period: 40 * time.Minute, DownFrac: 0.5,
			}}},
		},
		{
			// DownFrac 1 makes back-to-back down cycles: each ends where
			// the next starts. That is a continuous outage spelled as a
			// flap, not an overlap.
			name: "flap fully down is touching cycles",
			sched: Schedule{Flaps: []Flap{{
				Site: "FRA", Start: 0, End: 30 * time.Minute,
				Period: 10 * time.Minute, DownFrac: 1.0,
			}}},
		},
		{
			// ...but a second fault inside that span must still be
			// caught as overlapping.
			name: "outage inside fully-down flap",
			sched: Schedule{
				Outages: []Outage{{Site: "FRA", Start: 12 * time.Minute, End: 13 * time.Minute}},
				Flaps: []Flap{{
					Site: "FRA", Start: 0, End: 30 * time.Minute,
					Period: 10 * time.Minute, DownFrac: 1.0,
				}},
			},
			wantErr: "overlapping down windows",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sched.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestFlapCycleClipping pins the expansion geometry behind the
// validation: the last down cycle of a flap is clipped to the
// envelope, and a period longer than the envelope degenerates to one
// clipped cycle instead of escaping it.
func TestFlapCycleClipping(t *testing.T) {
	s := Schedule{Flaps: []Flap{{
		// Cycles start at 0, 10, 20; down length 8 min, so the last
		// would run to 28 but the envelope ends at 25.
		Site: "FRA", Start: 0, End: 25 * time.Minute,
		Period: 10 * time.Minute, DownFrac: 0.8,
	}}}
	want := []window{
		{0, 8 * time.Minute},
		{10 * time.Minute, 18 * time.Minute},
		{20 * time.Minute, 25 * time.Minute},
	}
	if got := s.downWindows()["FRA"]; !reflect.DeepEqual(got, want) {
		t.Errorf("clipped cycles = %v, want %v", got, want)
	}

	long := Schedule{Flaps: []Flap{{
		Site: "FRA", Start: 5 * time.Minute, End: 30 * time.Minute,
		Period: time.Hour, DownFrac: 0.9,
	}}}
	want = []window{{5 * time.Minute, 30 * time.Minute}}
	if got := long.downWindows()["FRA"]; !reflect.DeepEqual(got, want) {
		t.Errorf("over-long period cycles = %v, want %v", got, want)
	}
}

func TestNilScheduleIsValidAndEmpty(t *testing.T) {
	var s *Schedule
	if err := s.Validate(); err != nil {
		t.Fatalf("nil schedule Validate() = %v", err)
	}
	if !s.Empty() {
		t.Fatal("nil schedule should be Empty")
	}
	if got := s.EventWindows(); got != nil {
		t.Fatalf("nil schedule EventWindows() = %v", got)
	}
}

func TestTransitionsExpandFlaps(t *testing.T) {
	s := Schedule{
		Flaps: []Flap{{
			Site: "GRU", Start: 10 * time.Minute, End: 25 * time.Minute,
			Period: 10 * time.Minute, DownFrac: 0.3,
		}},
	}
	// Cycles: down [10,13), up; down [20,23), up.
	want := []Transition{
		{Site: "GRU", At: 10 * time.Minute, Down: true},
		{Site: "GRU", At: 13 * time.Minute, Down: false},
		{Site: "GRU", At: 20 * time.Minute, Down: true},
		{Site: "GRU", At: 23 * time.Minute, Down: false},
	}
	if got := s.Transitions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Transitions() = %v, want %v", got, want)
	}
}

func testBindings() Bindings {
	return Bindings{
		SiteAddr: map[string]netip.Addr{
			"FRA": netip.MustParseAddr("10.0.0.1"),
			"SYD": netip.MustParseAddr("10.0.0.2"),
		},
		Resolvers: []netip.Addr{
			netip.MustParseAddr("10.1.0.1"),
			netip.MustParseAddr("10.1.0.2"),
			netip.MustParseAddr("10.1.0.3"),
			netip.MustParseAddr("10.1.0.4"),
		},
	}
}

func TestCompileRejectsUnknownSite(t *testing.T) {
	s := &Schedule{Outages: []Outage{{Site: "LHR", Start: 0, End: time.Minute}}}
	if _, err := Compile(s, testBindings(), 1); err == nil || !strings.Contains(err.Error(), "unknown site") {
		t.Fatalf("Compile() error = %v, want unknown site", err)
	}
}

func TestInjectorOutageDropsBothDirections(t *testing.T) {
	b := testBindings()
	fra := b.SiteAddr["FRA"]
	res := b.Resolvers[0]
	s := &Schedule{Outages: []Outage{{Site: "FRA", Start: 10 * time.Minute, End: 20 * time.Minute}}}
	inj, err := Compile(s, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Drop(res, fra, 5*time.Minute) {
		t.Fatal("packet before window should pass")
	}
	if !inj.Drop(res, fra, 10*time.Minute) {
		t.Fatal("packet to down site should drop")
	}
	if !inj.Drop(fra, res, 15*time.Minute) {
		t.Fatal("packet from down site should drop")
	}
	if inj.Drop(res, fra, 20*time.Minute) {
		t.Fatal("packet at window end should pass (half-open)")
	}
	rep := inj.Report()
	if rep.Drops != 2 {
		t.Fatalf("Drops = %d, want 2", rep.Drops)
	}
	if got := rep.Cut["FRA"]; len(got) == 0 {
		t.Fatal("cut timeline for FRA is empty")
	}
}

func TestInjectorPartitionSplitsResolvers(t *testing.T) {
	b := testBindings()
	fra := b.SiteAddr["FRA"]
	s := &Schedule{Partitions: []Partition{{
		Site: "FRA", Start: 0, End: time.Hour, Fraction: 0.5,
	}}}
	inj, err := Compile(s, b, 7)
	if err != nil {
		t.Fatal(err)
	}
	cut, kept := 0, 0
	for _, r := range b.Resolvers {
		if inj.Drop(r, fra, 30*time.Minute) {
			cut++
		} else {
			kept++
		}
	}
	if cut == 0 || kept == 0 {
		t.Fatalf("partition should split resolvers, got cut=%d kept=%d", cut, kept)
	}
	// Other site unaffected.
	if inj.Drop(b.Resolvers[0], b.SiteAddr["SYD"], 30*time.Minute) {
		t.Fatal("partition must not affect other sites")
	}
	// Deterministic: recompiling with the same seed cuts the same set.
	inj2, err := Compile(s, b, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range b.Resolvers {
		if inj.Drop(r, fra, 31*time.Minute) != inj2.Drop(r, fra, 31*time.Minute) {
			t.Fatal("partition membership must be deterministic for a seed")
		}
	}
}

func TestInjectorFullPartitionSparesNonResolvers(t *testing.T) {
	b := testBindings()
	fra := b.SiteAddr["FRA"]
	s := &Schedule{Partitions: []Partition{{
		Site: "FRA", Start: 0, End: time.Hour, Fraction: 1,
	}}}
	inj, err := Compile(s, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range b.Resolvers {
		if !inj.Drop(r, fra, time.Minute) {
			t.Fatal("full partition should cut every resolver")
		}
	}
	probe := netip.MustParseAddr("10.9.0.1")
	if inj.Drop(probe, fra, time.Minute) {
		t.Fatal("partition must not cut non-resolver peers")
	}
}

func TestInjectorLossBurstIsApproximateAndSeeded(t *testing.T) {
	b := testBindings()
	fra := b.SiteAddr["FRA"]
	res := b.Resolvers[1]
	s := &Schedule{Bursts: []LossBurst{{
		Site: "FRA", Start: 0, End: time.Hour, Rate: 0.3,
	}}}
	run := func(seed int64) int {
		inj, err := Compile(s, b, seed)
		if err != nil {
			t.Fatal(err)
		}
		drops := 0
		for i := 0; i < 10000; i++ {
			if inj.Drop(res, fra, time.Minute) {
				drops++
			}
		}
		return drops
	}
	d1 := run(11)
	if d1 < 2700 || d1 > 3300 {
		t.Fatalf("burst at rate 0.3 dropped %d/10000", d1)
	}
	if d2 := run(11); d2 != d1 {
		t.Fatalf("same seed gave different burst outcomes: %d vs %d", d1, d2)
	}
}

func TestInjectorShape(t *testing.T) {
	b := testBindings()
	fra := b.SiteAddr["FRA"]
	res := b.Resolvers[2]
	s := &Schedule{Slowdowns: []Slowdown{{
		Site: "FRA", Start: 0, End: time.Hour,
		AddRTT: 100 * time.Millisecond, Factor: 2,
	}}}
	inj, err := Compile(s, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := inj.Shape(res, fra, time.Minute, 20*time.Millisecond)
	if want := 90 * time.Millisecond; got != want { // 20*2 + 100/2
		t.Fatalf("Shape = %v, want %v", got, want)
	}
	// Outside the window and off-path: untouched.
	if got := inj.Shape(res, fra, 2*time.Hour, 20*time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("Shape outside window = %v", got)
	}
	if got := inj.Shape(res, b.SiteAddr["SYD"], time.Minute, 20*time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("Shape off-path = %v", got)
	}
	if rep := inj.Report(); rep.Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", rep.Delayed)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	a := netip.MustParseAddr("10.0.0.1")
	if inj.Drop(a, a, 0) {
		t.Fatal("nil injector must not drop")
	}
	if got := inj.Shape(a, a, 0, time.Millisecond); got != time.Millisecond {
		t.Fatalf("nil injector Shape = %v", got)
	}
	if inj.Report() != nil {
		t.Fatal("nil injector Report should be nil")
	}
}
