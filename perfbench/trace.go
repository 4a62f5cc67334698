package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one timed interval of a traced run. Spans nest through
// Parent (0 = a root) and share RunID within one invocation.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	RunID  string `json:"run_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them once the run ends. A
// nil tracer records nothing, so untraced runs pay no cost.
type tracer struct {
	mu    sync.Mutex
	runID string
	t0    time.Time
	spans []span
}

func newTracer(workload string, seed int64) *tracer {
	return &tracer{runID: fmt.Sprintf("%s-seed%d-%d", workload, seed, os.Getpid()), t0: time.Now()}
}

// begin opens a span under parent and returns its id; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, RunID: t.runID, Name: name,
		Start: time.Since(t.t0).Nanoseconds(), End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// add records an already-measured interval.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, RunID: t.runID, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir string) error {
	if t == nil || dir == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+t.runID+".json"), b, 0o644)
}

// cpuSeconds is the user plus system time of this process and of its
// reaped children (the lane workers).
func cpuSeconds() (self, children float64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		self = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		children = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return self, children
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS restarts this process's resident high-water mark at its
// current resident set (Linux clear_refs); where that is not possible
// the mark keeps its process-lifetime meaning.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// passPeakRSSMiB is the resident high-water mark of this process since
// the last resetPeakRSS, plus that of the largest child it reaped (the
// lane workers; an exec'd process would also count its predecessor's).
func passPeakRSSMiB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	peak := float64(self.Maxrss) / 1024 // Linux reports KiB
	if hwm, ok := statusKiB("/proc/self/status", "VmHWM:"); ok {
		peak = hwm / 1024
	}
	return peak + float64(kids.Maxrss)/1024
}

// statusKiB reads one "Key: value kB" line of a /proc status file.
func statusKiB(path, key string) (float64, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == key {
			v, err := strconv.ParseFloat(f[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// median returns the middle value (mean of the two middle ones for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
