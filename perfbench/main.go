// Command ritwbench is the repository benchmark. One invocation runs
// one workload for a fixed time budget, checks that every output it
// produced is correct, and prints a JSON result as its last line:
//
//	ritwbench -authd .bench_build/authd --workload paper-batch --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	paper-batch   the Table-1 batch streamed into analysis aggregators,
//	              with Fig. 2/3/4 and Table 2 text and SVGs rendered
//	attack-lanes  the attack defense matrix at 2 shards x 2 lane-worker
//	              subprocesses
//	serve-auth    an authd subprocess serving the wildcard-TXT zone over
//	              loopback UDP
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by a separate
// traced pass and a replay of the workload's own records through each
// packet layer.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ritw/internal/measure"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload with --trace 0. Each workload gives them its own concrete
// meaning (README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"records_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the traced-run metrics, printed by every workload with
// --trace 1. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"core.pool_busy_frac", "frac"},
	{"atlas.generate_s", "s"},
	{"netsim.events", "count"},
	{"netsim.packets_sent", "count"},
	{"netsim.packets_dropped", "count"},
	{"netsim.ns_per_event", "ns"},
	{"netsim.allocs_per_event", "count"},
	{"resolver.client_queries", "count"},
	{"resolver.upstream_per_client", "ratio"},
	{"resolver.cache_hit_frac", "frac"},
	{"resolver.negcache_hit_frac", "frac"},
	{"resolver.timeouts", "count"},
	{"resolver.handle_packet_ns", "ns"},
	{"resolver.handle_packet_allocs", "count"},
	{"authserver.queries", "count"},
	{"authserver.append_query_ns", "ns"},
	{"authserver.append_query_allocs", "count"},
	{"authserver.engine_us_p50", "us"},
	{"dnswire.unpack_ns", "ns"},
	{"dnswire.unpack_allocs", "count"},
	{"dnswire.pack_ns", "ns"},
	{"dnswire.pack_allocs", "count"},
	{"dnswire.bytes_per_response", "B"},
	{"analysis.on_query_ns", "ns"},
	{"analysis.agg_size", "count"},
	{"analysis.figures_s", "s"},
	{"plot.render_s", "s"},
	{"measure.lane_wall_s_max", "s"},
	{"measure.lane_skew", "ratio"},
	{"lanewire.records", "count"},
	{"lanewire.encode_ns_per_record", "ns"},
	{"lanewire.decode_ns_per_record", "ns"},
	{"lanewire.bytes_per_record", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.allocs_per_record", "count"},
	{"runtime.alloc_bytes_per_record", "B"},
	{"runtime.heap_peak_mib", "MiB"},
	{"serve.qps_max", "1/s"},
	{"serve.p50_us_lo", "us"},
	{"serve.p99_us_lo", "us"},
	{"serve.p50_us_hi", "us"},
	{"serve.p99_us_hi", "us"},
	{"serve.loss_frac_hi", "frac"},
	{"serve.cpu_us_per_query", "us"},
	{"serve.server_busy_frac", "frac"},
	{"bench.gen_late_us_p99", "us"},
	{"kernel.udp_rcvbuf_errors", "count"},
	{"trace.unattributed_frac", "frac"},
	{"trace.overhead_s", "s"},
}

// env is what every workload receives: the command line, and the
// population size tests shrink.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	// probes overrides the population size of the simulated workloads
	// (0 = the small scale's 800); tests use it for tiny runs.
	probes int
	// authd is the server binary serve-auth executes.
	authd string
	// outdir receives the span file of a traced run ("" = not written).
	outdir string
	// cores bounds pool widths, shard, worker and sender counts.
	cores int
}

// outcome is one workload run: how many operations it attempted, how
// many failed (a failed job, or an output check that did not hold),
// and the metrics of the requested set.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workload func(ctx context.Context, e env) (*outcome, error)

var workloads = map[string]workload{
	"paper-batch":  runPaperBatch,
	"attack-lanes": runAttackLanes,
	"serve-auth":   runServeAuth,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result checks that o carries exactly the metrics of defs and shapes
// the printed JSON.
func result(o *outcome, defs []metricDef) (jsonResult, error) {
	r := jsonResult{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	if len(o.metrics) != len(defs) {
		var extra []string
		for name := range o.metrics {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return r, fmt.Errorf("metrics outside the declared set: %v", extra)
	}
	return r, nil
}

func main() {
	// attack-lanes runs its lanes in `lane-worker` children that
	// re-exec this binary; they must be intercepted before flag
	// parsing.
	if measure.MaybeRunLaneWorker() {
		return
	}
	var (
		name     = flag.String("workload", "", "workload: paper-batch, attack-lanes or serve-auth")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 30, "measuring budget in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		authd    = flag.String("authd", "", "authd binary for serve-auth")
		outdir   = flag.String("outdir", "", "directory for the span file of a traced run")
		digestOf = flag.String("record-digests", "", "print the output digests of this workload for the seeds given as arguments, then exit")
	)
	flag.Parse()
	e := env{seed: *seed, seconds: *seconds, trace: *trace == 1,
		authd: *authd, outdir: *outdir, cores: runtime.NumCPU()}
	if e.cores > 2 {
		// Load and pool widths stay at the 2-core reference layout so
		// figures from larger hosts remain comparable.
		e.cores = 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *digestOf != "" {
		if err := recordDigests(ctx, e, *digestOf, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "ritwbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "ritwbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "ritwbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "ritwbench: --seconds must be positive")
		os.Exit(2)
	}

	t0 := time.Now()
	o, err := run(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ritwbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	r, err := result(o, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ritwbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "ritwbench: %s: check failed: %s\n", *name, p)
	}
	fmt.Fprintf(os.Stderr, "ritwbench: %s seed %d finished in %.1fs\n", *name, *seed, time.Since(t0).Seconds())
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ritwbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
