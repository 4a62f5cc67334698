package netsim

import "time"

// event is one queued callback. Stored by value in the heap slice, so
// the queue never allocates per event once its capacity is warm (the
// closure a caller passes is the only allocation, and it belongs to
// the caller).
type event struct {
	at  time.Duration
	seq uint64 // FIFO tiebreak for equal timestamps
	fn  func()
}

// eventLess is the queue's total order: ascending time, scheduling
// order within an instant.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPushEvent and heapPopEvent implement a plain binary min-heap on
// a value slice. Hand-rolled instead of container/heap because the
// stdlib interface boxes every element through `any`, which costs an
// allocation per Push/Pop — on a path run once per simulated packet,
// that boxing dominated the heap's own work.
func heapPushEvent(h *[]event, ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func heapPopEvent(h *[]event) event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the closure for GC
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventLess(s[l], s[min]) {
			min = l
		}
		if r < n && eventLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}
