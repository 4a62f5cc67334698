package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"ritw/internal/analysis"
	"ritw/internal/atlas"
	"ritw/internal/attacks"
	"ritw/internal/core"
	"ritw/internal/geo"
	"ritw/internal/measure"
	"ritw/internal/obs"
	"ritw/internal/plot"
)

// sampleStride keeps every sampleStride-th record of a traced pass for
// the layer replay; sampleCap bounds each job's sample.
const (
	sampleStride = 16
	sampleCap    = 4096
)

// passState observes one batch call from outside: when it started,
// when the first record reached any sink, and each run's sink.
type passState struct {
	start     time.Time
	firstOnce sync.Once
	first     time.Time
	traced    bool
	tr        *tracer
	span      int

	mu   sync.Mutex
	jobs []*jobSink
}

// jobSink wraps one run's analysis sink. The measure layer drives a
// run's sink from one goroutine, so its counters need no locking.
type jobSink struct {
	pass       *passState
	key        string
	inner      measure.Sink
	begin, end time.Time
	first      time.Time // first record of a traced run
	queries    int64
	auths      int64
	onQueryNs  int64
	sampleQ    []measure.QueryRecord
	sampleA    []measure.AuthRecord
}

func newPass(tr *tracer, traced bool, parent int, name string) *passState {
	// Every pass starts from a collected heap and a fresh resident
	// high-water mark, so its peak is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	ps := &passState{traced: traced, tr: tr}
	ps.span = tr.begin(name, parent)
	ps.start = time.Now()
	return ps
}

func (ps *passState) wrap(key string, inner measure.Sink) measure.Sink {
	j := &jobSink{pass: ps, key: key, inner: inner, begin: time.Now()}
	ps.mu.Lock()
	ps.jobs = append(ps.jobs, j)
	ps.mu.Unlock()
	return j
}

func (ps *passState) markFirst() {
	ps.firstOnce.Do(func() { ps.first = time.Now() })
}

func (j *jobSink) OnQuery(r measure.QueryRecord) {
	j.pass.markFirst()
	if j.pass.traced {
		if j.first.IsZero() {
			j.first = time.Now()
		}
		if j.queries%sampleStride == 0 && len(j.sampleQ) < sampleCap {
			j.sampleQ = append(j.sampleQ, r)
		}
		t := time.Now()
		j.inner.OnQuery(r)
		j.onQueryNs += time.Since(t).Nanoseconds()
	} else {
		j.inner.OnQuery(r)
	}
	j.queries++
}

func (j *jobSink) OnAuth(a measure.AuthRecord) {
	j.pass.markFirst()
	if j.pass.traced {
		if j.first.IsZero() {
			j.first = time.Now()
		}
		if j.auths%sampleStride == 0 && len(j.sampleA) < sampleCap {
			j.sampleA = append(j.sampleA, a)
		}
	}
	j.inner.OnAuth(a)
	j.auths++
}

func (j *jobSink) OnMeta(m measure.Meta) {
	if ms, ok := j.inner.(measure.MetaSink); ok {
		ms.OnMeta(m)
	}
}

func (j *jobSink) Close() error {
	err := j.inner.Close()
	j.end = time.Now()
	// The batch builds every run's sink up front, so a run's span starts
	// at its first record; the few milliseconds of world building
	// before it fall outside.
	start := j.first
	if start.IsZero() {
		start = j.begin
	}
	j.pass.tr.add("run:"+j.key, j.pass.span, start, j.end)
	return err
}

// passResult is one timed pass of a simulated workload.
type passResult struct {
	setup, run, simWall, cpu, childCPU float64
	rssMiB                             float64
	queries, auths                     int64
	digest                             string
	problems                           []string
	jobs                               []*jobSink
	start                              time.Time
	figuresS, renderS                  float64
	aggSize                            int
	attempted                          int
}

// finish fills the timings common to both simulated workloads.
func (ps *passState) finish(res *passResult, simEnd, end time.Time, cpu0, child0 float64) {
	ps.tr.end(ps.span)
	first := ps.first
	if first.IsZero() {
		first = simEnd
	}
	res.setup = first.Sub(ps.start).Seconds()
	res.simWall = simEnd.Sub(first).Seconds()
	res.run = end.Sub(ps.start).Seconds()
	self, kids := cpuSeconds()
	res.cpu = self + kids - cpu0 - child0
	res.childCPU = kids - child0
	res.rssMiB = passPeakRSSMiB()
	res.jobs = ps.jobs
	res.start = ps.start
	for _, j := range ps.jobs {
		res.queries += j.queries
		res.auths += j.auths
	}
}

func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// simOpts are the options both simulated workloads share.
func simOpts(e env, reg *obs.Registry) []core.Option {
	opts := []core.Option{
		core.WithSeed(e.seed), core.WithScale(core.ScaleSmall), core.WithProbes(e.probes),
		core.WithParallelism(e.cores), core.WithStreamOnly(true),
	}
	if reg != nil {
		opts = append(opts, core.WithMetrics(reg))
	}
	return opts
}

// paperPass runs the Table-1 batch into streaming aggregators, then
// computes and renders Fig. 2, 3, 4 and Table 2.
func paperPass(ctx context.Context, e env, tr *tracer, traced bool, reg *obs.Registry, parent int) (*passResult, error) {
	var (
		mu   sync.Mutex
		aggs = map[string]*analysis.Aggregator{}
	)
	cpu0, child0 := cpuSeconds()
	ps := newPass(tr, traced, parent, "pass:paper-batch")
	opts := append(simOpts(e, reg), core.WithSink(func(key string) measure.Sink {
		combo, err := measure.CombinationByID(key)
		if err != nil {
			return measure.Discard
		}
		agg := analysis.NewAggregator(analysis.AggConfig{
			ComboID: key, Sites: combo.Sites,
			Duration: measure.DefaultRunConfig(combo, 0).Duration,
			Seed:     e.seed, Metrics: reg,
		})
		mu.Lock()
		aggs[key] = agg
		mu.Unlock()
		return ps.wrap(key, agg)
	}))
	dss, err := core.RunTable1Context(ctx, opts...)
	simEnd := time.Now()
	if err != nil {
		return nil, err
	}
	res := &passResult{attempted: len(dss)}

	figSpan := tr.begin("figures", ps.span)
	t0 := time.Now()
	fig := paperFigures(e.seed, dss, aggs)
	res.figuresS = time.Since(t0).Seconds()
	tr.end(figSpan)

	renderSpan := tr.begin("render", ps.span)
	t1 := time.Now()
	svgs := fig.render()
	res.renderS = time.Since(t1).Seconds()
	tr.end(renderSpan)

	ps.finish(res, simEnd, time.Now(), cpu0, child0)
	res.digest = digestOf(append([]string{fig.text}, svgs...)...)
	for _, a := range aggs {
		res.aggSize += a.Size()
	}
	return res, nil
}

// paperFig holds the computed figures of one paper-batch pass.
type paperFig struct {
	text     string
	probeAll []analysis.ProbeAllResult
	shares   map[string][]analysis.SiteShare
	prefs    map[string]analysis.PreferenceResult
	sites    map[string][]string
}

// paperFigures computes the text of Table 1, Fig. 2, 3, 4 and Table 2
// in the layout `ritw` prints them.
func paperFigures(seed int64, dss map[string]*measure.Dataset, aggs map[string]*analysis.Aggregator) paperFig {
	f := paperFig{shares: map[string][]analysis.SiteShare{},
		prefs: map[string]analysis.PreferenceResult{}, sites: map[string][]string{}}
	var b strings.Builder
	fmt.Fprintln(&b, "Table 1")
	for _, combo := range measure.Table1() {
		fmt.Fprintf(&b, "%-4s %-25s %8d %9d\n", combo.ID, strings.Join(combo.Sites, ", "),
			dss[combo.ID].ActiveProbes, aggs[combo.ID].NumRecords())
		f.sites[combo.ID] = dss[combo.ID].Sites
	}
	fmt.Fprintln(&b, "Figure 2")
	for _, combo := range measure.Table1() {
		res := aggs[combo.ID].ProbeAll()
		f.probeAll = append(f.probeAll, res)
		fmt.Fprintf(&b, "%-3s(%4.1f%%) %9d %6.1f %6.1f %6.1f %6.1f %6.1f\n",
			res.ComboID, res.PercentAll, res.VPs,
			res.Box.P10, res.Box.Q1, res.Box.Median, res.Box.Q3, res.Box.P90)
	}
	fmt.Fprintln(&b, "Figure 3")
	for _, combo := range measure.Table1() {
		shares := aggs[combo.ID].ShareVsRTT()
		f.shares[combo.ID] = shares
		fmt.Fprintf(&b, "%s:", combo.ID)
		for _, s := range shares {
			fmt.Fprintf(&b, "  %s rtt=%.0fms share=%.2f", s.Site, s.MedianRTT, s.Share)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintln(&b, "Figure 4")
	for _, id := range []string{"2A", "2B", "2C"} {
		p := aggs[id].Preference()
		f.prefs[id] = p
		w, s, err := aggs[id].PreferenceCI(300, seed)
		if err != nil {
			fmt.Fprintf(&b, "%s CI error: %v\n", id, err)
		}
		fmt.Fprintf(&b, "%-5s %10d %6.1f%% [%4.1f-%4.1f] %6.1f%% [%4.1f-%4.1f]\n",
			id, p.QualifiedVPs, 100*p.WeakFrac, 100*w.Lo, 100*w.Hi,
			100*p.StrongFrac, 100*s.Lo, 100*s.Hi)
	}
	fmt.Fprintln(&b, "Table 2")
	for _, id := range []string{"2A", "2B", "2C"} {
		t2 := aggs[id].Table2()
		sites := f.sites[id]
		fmt.Fprintf(&b, "config %s:\n", id)
		for _, cont := range geo.Continents() {
			cells, ok := t2[cont]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-4s", cont)
			for _, site := range sites {
				c := cells[site]
				fmt.Fprintf(&b, "  %3.0f%% %6.0fms", c.SharePct, c.MedianRTT)
			}
			fmt.Fprintln(&b)
		}
	}
	f.text = b.String()
	return f
}

// render draws the Fig. 2, 3 and 4 SVGs.
func (f paperFig) render() []string {
	var out []string
	var groups []plot.BoxGroup
	for _, res := range f.probeAll {
		groups = append(groups, plot.BoxGroup{
			Label: fmt.Sprintf("%s (%.1f%%)", res.ComboID, res.PercentAll), Box: res.Box})
	}
	out = append(out, plot.BoxChart("Queries to probe all authoritatives, after the first query",
		"# of queries after first query", groups))
	for _, combo := range measure.Table1() {
		var bars []plot.ShareRTTBar
		for _, s := range f.shares[combo.ID] {
			bars = append(bars, plot.ShareRTTBar{Label: s.Site, Share: s.Share, MedianRTT: s.MedianRTT})
		}
		out = append(out, plot.ShareRTTChart("Query share and median RTT — "+combo.ID, bars))
	}
	for _, id := range []string{"2A", "2B", "2C"} {
		p := f.prefs[id]
		var series []plot.Series
		for _, site := range f.sites[id] {
			fracs := p.Curves[geo.Europe][site]
			xs := make([]float64, len(fracs))
			for i := range fracs {
				xs[i] = float64(i)
			}
			series = append(series, plot.Series{Name: site + " (EU)", X: xs, Y: fracs})
		}
		out = append(out, plot.LineChart(
			fmt.Sprintf("Per-recursive query fraction — %s (weak %.0f%%, strong %.0f%%)",
				id, 100*p.WeakFrac, 100*p.StrongFrac),
			"recursives (sorted)", "fraction of queries", series, 0, 1))
	}
	return out
}

// The attack ledger bounds of the CI amplification gate.
const (
	nxnsUndefendedFloor = 10.0
	nxnsMaxFetchCeiling = 2.05
)

// attackMatrix is the `ritw attacks` defense matrix on 2B. Its NXNS
// campaign has the shape of the CI amplification gate (fanout 12, 30%
// bots), so the gate's bounds apply to every seed.
func attackMatrix() []core.Scenario {
	nxns := &attacks.Schedule{NXNS: []attacks.NXNS{{
		Start: 20 * time.Minute, End: 40 * time.Minute,
		Interval: 10 * time.Second, Fraction: 0.3, Fanout: 12,
	}}}
	flood := &attacks.Schedule{Floods: []attacks.Flood{{
		Start: 20 * time.Minute, End: 40 * time.Minute,
		Interval: 5 * time.Second, Fraction: 0.3, Names: 40,
	}}}
	reflect := &attacks.Schedule{Reflections: []attacks.Reflection{{
		Start: 20 * time.Minute, End: 40 * time.Minute,
		Interval: 5 * time.Second, Fraction: 0.5,
	}}}
	return []core.Scenario{
		{Name: "baseline", ComboID: "2B"},
		{Name: "nxns-open", ComboID: "2B", Attacks: nxns},
		{Name: "nxns-maxfetch", ComboID: "2B", Attacks: nxns, Defense: attacks.Defenses{MaxFetch: 2}},
		{Name: "flood", ComboID: "2B", Attacks: flood},
		{Name: "flood-nonegcache", ComboID: "2B", Attacks: flood, Defense: attacks.Defenses{NoNegativeCache: true}},
		{Name: "reflect", ComboID: "2B", Attacks: reflect},
	}
}

func attackWindows(sc core.Scenario) []analysis.FaultWindow {
	if sc.Attacks.Empty() {
		return []analysis.FaultWindow{{Label: "whole run", Start: 0, End: 2 * time.Hour}}
	}
	return analysis.WindowsFromAttacks(sc.Attacks)
}

// attackLayout is the process layout of attack-lanes: two lanes per
// run, each in its own lane-worker subprocess (fewer on one core).
func attackLayout(e env) []core.Option {
	return []core.Option{core.WithShards(e.cores), core.WithWorkers(e.cores)}
}

// attackPass runs the defense matrix and formats its ledgers and
// collateral-impact tables.
func attackPass(ctx context.Context, e env, tr *tracer, traced bool, reg *obs.Registry, parent int) (*passResult, error) {
	scenarios := attackMatrix()
	byName := map[string]core.Scenario{}
	for _, sc := range scenarios {
		byName[sc.Name] = sc
	}
	var (
		mu   sync.Mutex
		aggs = map[string]*analysis.FaultAggregator{}
	)
	cpu0, child0 := cpuSeconds()
	ps := newPass(tr, traced, parent, "pass:attack-lanes")
	opts := append(simOpts(e, reg), attackLayout(e)...)
	opts = append(opts, core.WithSink(func(key string) measure.Sink {
		agg := analysis.NewFaultAggregator(attackWindows(byName[key]), 0, e.seed)
		mu.Lock()
		aggs[key] = agg
		mu.Unlock()
		return ps.wrap(key, agg)
	}))
	dss, err := core.RunScenariosContext(ctx, scenarios, opts...)
	simEnd := time.Now()
	if err != nil {
		return nil, err
	}
	res := &passResult{attempted: len(dss)}

	figSpan := tr.begin("figures", ps.span)
	t0 := time.Now()
	var b strings.Builder
	for i, sc := range scenarios {
		ds := dss[i]
		fmt.Fprintf(&b, "-- attack %s (combo %s, %d probes)\n", sc.Name, ds.ComboID, ds.ActiveProbes)
		fmt.Fprintln(&b, "   defense: "+sc.Defense.Describe())
		for _, line := range sc.Attacks.Describe() {
			fmt.Fprintln(&b, "   "+line)
		}
		for _, line := range analysis.FormatAttackReport(ds.Attacks) {
			fmt.Fprintln(&b, line)
		}
		for _, fi := range aggs[sc.Name].Impacts() {
			for _, line := range analysis.FormatImpact(fi, ds.Sites) {
				fmt.Fprintln(&b, line)
			}
		}
		if ds.Attacks == nil || len(sc.Attacks.NXNS) == 0 {
			continue
		}
		amp := ds.Attacks.Entries[0].AmpQueries()
		switch {
		case sc.Defense.MaxFetch == 0 && amp < nxnsUndefendedFloor:
			res.problems = append(res.problems, fmt.Sprintf(
				"%s: undefended NXNS amplification %.3fx below %.1fx", sc.Name, amp, nxnsUndefendedFloor))
		case sc.Defense.MaxFetch == 2 && amp > nxnsMaxFetchCeiling:
			res.problems = append(res.problems, fmt.Sprintf(
				"%s: MaxFetch=2 amplification %.3fx above %.2fx", sc.Name, amp, nxnsMaxFetchCeiling))
		}
	}
	res.figuresS = time.Since(t0).Seconds()
	tr.end(figSpan)

	ps.finish(res, simEnd, time.Now(), cpu0, child0)
	res.digest = digestOf(b.String())
	return res, nil
}

// simPassFunc is one pass of a simulated workload.
type simPassFunc func(ctx context.Context, e env, tr *tracer, traced bool, reg *obs.Registry, parent int) (*passResult, error)

func runPaperBatch(ctx context.Context, e env) (*outcome, error) {
	return runSim(ctx, e, "paper-batch", paperPass)
}

func runAttackLanes(ctx context.Context, e env) (*outcome, error) {
	return runSim(ctx, e, "attack-lanes", attackPass)
}

// runSim measures a simulated workload. Untraced, it repeats whole
// passes until the time budget is spent (at least two) and reports
// medians. Traced, it runs a plain warm-up pass, the traced pass, a
// plain reference pass for the tracing overhead, and the layer replay.
func runSim(ctx context.Context, e env, name string, pass simPassFunc) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	want, known := recordedDigest(name, e.seed, e.probes)
	check := func(p *passResult, digest *string) {
		o.attempted += p.attempted
		for _, msg := range p.problems {
			o.fail("%s", msg)
		}
		if *digest == "" {
			*digest = p.digest
		} else if p.digest != *digest {
			o.fail("output digest %s differs from the first pass's %s at the same seed", p.digest, *digest)
		}
		if known && p.digest != want {
			o.fail("output digest %s differs from the recorded %s for seed %d", p.digest, want, e.seed)
		}
	}
	var digest string

	if !e.trace {
		var setup, run, cpu, rate, rss []float64
		start := time.Now()
		for {
			p, err := pass(ctx, e, nil, false, nil, 0)
			if err != nil {
				return nil, err
			}
			check(p, &digest)
			setup = append(setup, p.setup)
			run = append(run, p.run)
			cpu = append(cpu, p.cpu)
			rss = append(rss, p.rssMiB)
			rate = append(rate, float64(p.queries)/p.simWall)
			fmt.Fprintf(os.Stderr, "pass %d: setup %.4fs run %.3fs cpu %.3fs sim %.3fs records %d rss %.1fMiB\n",
				len(run), p.setup, p.run, p.cpu, p.simWall, p.queries, p.rssMiB)
			elapsed := time.Since(start).Seconds()
			if len(run) >= 2 && elapsed+p.run > e.seconds {
				break
			}
		}
		o.metrics["setup_s"] = median(setup)
		o.metrics["run_s"] = median(run)
		o.metrics["cpu_s"] = median(cpu)
		o.metrics["records_per_s"] = median(rate)
		o.metrics["peak_rss_mib"] = median(rss)
		if name == "paper-batch" {
			calibration(ctx, e, o)
		}
		return o, nil
	}

	// A plain warm-up pass, the traced pass, then a plain pass as the
	// reference for the tracing overhead.
	tr := newTracer(name, e.seed)
	root := tr.begin("workload:"+name, 0)
	warm, err := pass(ctx, e, nil, false, nil, 0)
	if err != nil {
		return nil, err
	}
	check(warm, &digest)

	reg := obs.NewRegistry()
	rt := startRuntimeSampler()
	traced, err := pass(ctx, e, tr, true, reg, root)
	rs := rt.stop()
	if err != nil {
		return nil, err
	}
	check(traced, &digest)
	plain, err := pass(ctx, e, nil, false, nil, 0)
	if err != nil {
		return nil, err
	}
	check(plain, &digest)
	if name == "paper-batch" {
		calibration(ctx, e, o)
	}
	snap := reg.Snapshot()
	replaySpan := tr.begin("replay", root)
	if err := layerMetrics(ctx, e, name, traced, plain, snap, rs, o.metrics); err != nil {
		return nil, err
	}
	tr.end(replaySpan)
	tr.end(root)
	if err := tr.write(e.outdir); err != nil {
		return nil, err
	}
	for _, k := range serveOnlyMetrics {
		o.metrics[k] = 0
	}
	return o, nil
}

// runtimeStats are the Go runtime's counters over a traced pass.
type runtimeStats struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64
	heapPeak           float64
}

type runtimeSampler struct {
	stopc chan struct{}
	done  chan struct{}
	base  []metrics.Sample
	peak  float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// startRuntimeSampler snapshots the runtime counters and polls the live
// heap every 20 ms until stop.
func startRuntimeSampler() *runtimeSampler {
	r := &runtimeSampler{stopc: make(chan struct{}), done: make(chan struct{}), base: readRuntime()}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		one := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			select {
			case <-r.stopc:
				return
			case <-tick.C:
				metrics.Read(one)
				if v := sampleValue(one[0]); v > r.peak {
					r.peak = v
				}
			}
		}
	}()
	return r
}

func (r *runtimeSampler) stop() runtimeStats {
	close(r.stopc)
	<-r.done
	now := readRuntime()
	d := func(i int) float64 { return sampleValue(now[i]) - sampleValue(r.base[i]) }
	peak := r.peak
	if v := sampleValue(now[4]); v > peak {
		peak = v
	}
	return runtimeStats{allocs: d(0), allocBytes: d(1), gcCPU: d(2), totalCPU: d(3), heapPeak: peak}
}

// serveOnlyMetrics are the metrics of the socket serving path, which
// the simulated workloads bypass.
var serveOnlyMetrics = []string{
	"serve.qps_max", "serve.p50_us_lo", "serve.p99_us_lo", "serve.p50_us_hi",
	"serve.p99_us_hi", "serve.loss_frac_hi", "serve.cpu_us_per_query", "serve.server_busy_frac",
	"bench.gen_late_us_p99", "kernel.udp_rcvbuf_errors",
}

// calibration re-runs the reference configuration of the paper-band
// gate (2B with the paper-calibrated resolver mix, seed 42, small
// scale) and checks that its Fig. 4 weak/strong preference shares land
// inside the paper's bands.
func calibration(ctx context.Context, e env, o *outcome) {
	o.attempted++
	sc := core.Scenario{Name: "paper", ComboID: "2B", Mix: atlas.PaperMix()}
	opts := []core.Option{core.WithSeed(42), core.WithScale(core.ScaleSmall), core.WithParallelism(e.cores)}
	cfg, err := core.ScenarioRunConfig(sc, opts...)
	if err != nil {
		o.fail("calibration: %v", err)
		return
	}
	assign, err := measure.PolicyAssignment(cfg)
	if err != nil {
		o.fail("calibration: %v", err)
		return
	}
	dss, err := core.RunScenariosContext(ctx, []core.Scenario{sc}, opts...)
	if err != nil {
		o.fail("calibration: %v", err)
		return
	}
	p := analysis.BreakoutByPolicy(dss[0], assign).Mixture().Preference()
	if !analysis.InPaperBands(p.WeakFrac, p.StrongFrac) {
		o.fail("calibration: Fig. 4 weak %.1f%% strong %.1f%% outside the paper bands",
			100*p.WeakFrac, 100*p.StrongFrac)
	}
}
