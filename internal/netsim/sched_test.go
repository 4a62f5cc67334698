package netsim

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"
)

// TestSchedulerPopLE checks the event queue's limit semantics: events
// after the limit stay queued until a later step's limit reaches them.
func TestSchedulerPopLE(t *testing.T) {
	s := NewSimulator()
	var ran []time.Duration
	for _, at := range []time.Duration{1500 * time.Microsecond, 1700 * time.Microsecond, 3 * time.Millisecond} {
		s.ScheduleAt(at, func() { ran = append(ran, s.Now()) })
	}
	if s.step(1 * time.Millisecond) {
		t.Fatal("popped an event before its time")
	}
	if !s.step(1600*time.Microsecond) || ran[0] != 1500*time.Microsecond {
		t.Fatalf("want the 1.5ms event, ran %v", ran)
	}
	if s.step(1600 * time.Microsecond) {
		t.Fatal("released the 1.7ms event past the 1.6ms limit")
	}
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	if !s.step(time.Hour) || ran[1] != 1700*time.Microsecond {
		t.Fatalf("want the 1.7ms event, ran %v", ran)
	}
	if !s.step(time.Hour) || ran[2] != 3*time.Millisecond {
		t.Fatalf("want the 3ms event, ran %v", ran)
	}
	if s.Pending() != 0 {
		t.Fatal("queue not drained")
	}
}

// steadyStateChurn measures the per-event cost with depth events in
// flight: pop the earliest, reschedule it a bounded delay ahead — the
// shape of the per-packet path in a full-scale run.
func steadyStateChurn(b *testing.B, depth int) {
	s := NewSimulator()
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		// 0–400ms: RTT-scale timers dominate full-scale event loops.
		delays[i] = time.Duration(rng.Intn(400_000)) * time.Microsecond
	}
	i := 0
	var fn func()
	fn = func() {
		i++
		s.Schedule(delays[i%len(delays)], fn)
	}
	for j := 0; j < depth; j++ {
		s.Schedule(delays[j%len(delays)], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if !s.step(maxDeadline) {
			b.Fatal("queue unexpectedly empty")
		}
	}
}

// BenchmarkEventQueue measures event-loop throughput at full-scale
// queue depths (see BENCH.md for the recorded figures).
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{1_000, 100_000, 1_000_000} {
		b.Run("depth="+strconv.Itoa(depth), func(b *testing.B) {
			steadyStateChurn(b, depth)
		})
	}
}

// TestHeapHotPathZeroAllocGate is the env-gated bench gate: with
// RITW_BENCH_GATE=1 it pins the event queue's steady-state per-event
// path (Schedule + pop with the heap's capacity warmed) to zero
// allocations. Deterministic — it counts allocations, not time — so
// it is safe to enforce in CI.
func TestHeapHotPathZeroAllocGate(t *testing.T) {
	if os.Getenv("RITW_BENCH_GATE") != "1" {
		t.Skip("set RITW_BENCH_GATE=1 to enforce the event-queue zero-alloc gate")
	}
	s := NewSimulator()
	fn := func() {}
	// Warm the heap capacity the loop will reuse.
	for i := 0; i < 4096; i++ {
		s.Schedule(time.Duration(i%200)*time.Millisecond, fn)
	}
	s.Run()
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		i++
		s.Schedule(time.Duration(i%200)*time.Millisecond, fn)
		if !s.step(maxDeadline) {
			t.Fatal("queue unexpectedly empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("event queue hot path allocates %.1f allocs/op, want 0", allocs)
	}
}
