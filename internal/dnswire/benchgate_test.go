package dnswire

import (
	"os"
	"testing"
)

// TestBenchGateNameZeroAlloc is the CI gate for the two name operations
// every packet repeats: the canonical key of an already-lowercase name
// (each zone, cache and singleflight probe) and compressing a name the
// message already holds (each owner after the question). Both must stay
// at exactly zero allocations. Gated behind RITW_BENCH_GATE=1 like the
// other allocation gates, because instrumented builds (-race) allocate.
func TestBenchGateNameZeroAlloc(t *testing.T) {
	if os.Getenv("RITW_BENCH_GATE") == "" {
		t.Skip("set RITW_BENCH_GATE=1 to run the bench regression gate")
	}
	n := MustParseName("p1234x56.ourtestdomain.nl.")
	var key string
	if a := testing.AllocsPerRun(1000, func() { key = n.WireKey() }); a != 0 {
		t.Errorf("WireKey of a lowercase name allocates %.1f/op, want 0", a)
	}
	if key != n.wire {
		t.Fatalf("WireKey = %q", key)
	}

	// The table matches on the canonical key, so a re-cased spelling
	// compresses just as cheaply.
	c := newCompressor(0)
	msg := c.appendName(make([]byte, 0, 512), n)
	mark := len(msg)
	for _, again := range []Name{n, MustParseName("P1234X56.ourtestdomain.NL")} {
		if a := testing.AllocsPerRun(1000, func() { msg = c.appendName(msg[:mark], again) }); a != 0 {
			t.Errorf("compressing %s, already in the table, allocates %.1f/op, want 0", again, a)
		}
		if len(msg) != mark+2 {
			t.Fatalf("repeat name %s took %d octets, want a 2-octet pointer", again, len(msg)-mark)
		}
	}
}
