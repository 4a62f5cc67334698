package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/authserver"
	"ritw/internal/core"
	"ritw/internal/dnswire"
	"ritw/internal/lanewire"
	"ritw/internal/measure"
	"ritw/internal/netsim"
	"ritw/internal/obs"
	"ritw/internal/resolver"
	"ritw/internal/zone"
)

// opCost is the measured cost of one call of a layer function.
type opCost struct {
	ns, allocs float64
}

// measureOps times n calls of fn and counts their heap allocations.
// The benchmark is otherwise idle while it runs, so the allocation
// count is the calls' own.
func measureOps(n int, fn func(i int)) opCost {
	if n == 0 {
		return opCost{}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	return opCost{ns: float64(d.Nanoseconds()) / float64(n), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)}
}

// measureStable repeats a stateless measurement and keeps the median
// time; allocation counts repeat exactly.
func measureStable(n int, fn func(i int)) opCost {
	var ns []float64
	var c opCost
	for r := 0; r < 3; r++ {
		c = measureOps(n, fn)
		ns = append(ns, c.ns)
	}
	c.ns = median(ns)
	return c
}

// replayAuth is one sampled authoritative-side query with the Table-1
// combination whose zone answered it.
type replayAuth struct {
	combo string
	rec   measure.AuthRecord
}

// siteAddr is the replay's address for site i of a combination.
func siteAddr(i int) netip.Addr { return netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}) }

// authFleet holds one authserver engine per combination site, serving
// the zone the simulation serves there.
type authFleet map[string]map[netip.Addr]*authserver.Engine

func newAuthFleet(combos []string) (authFleet, error) {
	f := authFleet{}
	for _, id := range combos {
		combo, err := measure.CombinationByID(id)
		if err != nil {
			return nil, err
		}
		f[id] = map[netip.Addr]*authserver.Engine{}
		for i, site := range combo.Sites {
			z, err := zone.ParseString(measure.ZoneText(combo, site), dnswire.Root)
			if err != nil {
				return nil, fmt.Errorf("zone %s/%s: %w", id, site, err)
			}
			f[id][siteAddr(i)] = authserver.NewEngine(authserver.Config{Zones: []*zone.Zone{z}, Identity: site})
		}
	}
	return f, nil
}

// siteEngine picks the engine serving the record's site, falling back
// to the combination's first site for records captured elsewhere.
func (f authFleet) siteEngine(combo, site string) *authserver.Engine {
	c, _ := measure.CombinationByID(combo)
	for i, s := range c.Sites {
		if strings.EqualFold(s, site) || strings.HasPrefix(strings.ToLower(site), strings.ToLower(s)+".") {
			return f[combo][siteAddr(i)]
		}
	}
	return f[combo][siteAddr(0)]
}

// fakeClock advances only when told to; timers never fire, so the
// replay measures the packet path alone.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration              { return c.now }
func (c *fakeClock) AfterFunc(time.Duration, func()) {}

type sent struct {
	dst     netip.Addr
	payload []byte
}

type captureTransport struct{ out []sent }

func (t *captureTransport) Send(dst netip.Addr, payload []byte) {
	t.out = append(t.out, sent{dst, append([]byte(nil), payload...)})
}

type packetIn struct {
	src     netip.Addr
	payload []byte
	advance bool // a new client query: the clock moves on
}

func newReplayResolver(combo string, seed int64, tp *captureTransport, clock *fakeClock) *resolver.Engine {
	c, _ := measure.CombinationByID(combo)
	var servers []netip.Addr
	for i := range c.Sites {
		servers = append(servers, siteAddr(i))
	}
	return resolver.NewEngine(resolver.Config{
		Policy:    resolver.NewPolicy(resolver.KindBINDLike),
		Infra:     resolver.NewInfraCache(10*time.Minute, resolver.HardExpire),
		Cache:     resolver.NewRecordCache(),
		Zones:     []resolver.ZoneServers{{Zone: measure.TestDomain, Servers: servers}},
		Transport: tp,
		Clock:     clock,
		RNG:       rand.New(rand.NewSource(seed)),
		Timeout:   800 * time.Millisecond,
	})
}

// replayResolver resolves every sampled name through a resolver engine
// wired to the authserver fleet, recording each packet the engine
// receives; a fresh, identically seeded engine then takes exactly that
// packet sequence under the clock.
func replayResolver(samples []replayAuth, fleet authFleet, seed int64) opCost {
	client := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	byCombo := map[string][]replayAuth{}
	var combos []string
	for _, s := range samples {
		if _, ok := byCombo[s.combo]; !ok {
			combos = append(combos, s.combo)
		}
		byCombo[s.combo] = append(byCombo[s.combo], s)
	}
	sort.Strings(combos)
	var total opCost
	var calls int
	for _, combo := range combos {
		var inputs []packetIn
		tp := &captureTransport{}
		clock := &fakeClock{}
		eng := newReplayResolver(combo, seed, tp, clock)
		for i, s := range byCombo[combo] {
			name, err := dnswire.ParseName(s.rec.QName)
			if err != nil {
				continue
			}
			q, err := dnswire.NewQuery(uint16(i), name, dnswire.TypeTXT).Pack()
			if err != nil {
				continue
			}
			clock.now += 10 * time.Millisecond
			inputs = append(inputs, packetIn{client, q, true})
			eng.HandlePacket(client, q)
			for steps := 0; len(tp.out) > 0 && steps < 16; steps++ {
				p := tp.out[0]
				tp.out = tp.out[1:]
				auth := fleet[combo][p.dst]
				if auth == nil {
					continue // the answer to the client
				}
				resp := auth.AppendQuery(nil, client, p.payload, 0)
				if len(resp) == 0 {
					continue
				}
				inputs = append(inputs, packetIn{p.dst, resp, false})
				eng.HandlePacket(p.dst, resp)
			}
			tp.out = tp.out[:0]
		}
		tp2 := &captureTransport{}
		clock2 := &fakeClock{}
		eng2 := newReplayResolver(combo, seed, tp2, clock2)
		c := measureOps(len(inputs), func(i int) {
			in := inputs[i]
			if in.advance {
				clock2.now += 10 * time.Millisecond
				tp2.out = tp2.out[:0]
			}
			eng2.HandlePacket(in.src, in.payload)
		})
		total.ns += c.ns * float64(len(inputs))
		total.allocs += c.allocs * float64(len(inputs))
		calls += len(inputs)
	}
	if calls == 0 {
		return opCost{}
	}
	return opCost{ns: total.ns / float64(calls), allocs: total.allocs / float64(calls)}
}

// layerMetrics fills the per-layer metrics of a traced simulated pass:
// counts from the obs registry, costs from a replay of the pass's own
// sampled records through each packet layer.
func layerMetrics(ctx context.Context, e env, name string, traced, plain *passResult, snap obs.Snapshot, rs runtimeStats, m map[string]float64) error {
	comboOf := func(key string) string {
		if name == "attack-lanes" {
			return "2B"
		}
		return key
	}
	var (
		auths   []replayAuth
		queries []measure.QueryRecord
		combos  []string
		seen    = map[string]bool{}
		onQuery int64
		ends    []float64
	)
	for _, j := range traced.jobs {
		c := comboOf(j.key)
		if !seen[c] {
			seen[c] = true
			combos = append(combos, c)
		}
		for _, a := range j.sampleA {
			auths = append(auths, replayAuth{c, a})
		}
		queries = append(queries, j.sampleQ...)
		onQuery += j.onQueryNs
		ends = append(ends, j.end.Sub(traced.start).Seconds())
	}
	sort.Strings(combos)
	records := float64(traced.queries + traced.auths)

	// core: how full the run pool was while the batch simulated. The
	// pool hands out runs in order, so no slot idles while runs wait:
	// each slot is busy from the start until its last run closes, and
	// those are the last `width` runs to close.
	sort.Float64s(ends)
	width := min(e.cores, len(ends))
	busy := 0.0
	for _, t := range ends[len(ends)-width:] {
		busy += t
	}
	m["core.pool_busy_frac"] = busy / (float64(width) * ends[len(ends)-1])

	// atlas: population synthesis of every run in the batch.
	gen, err := atlasSeconds(ctx, e, name)
	if err != nil {
		return err
	}
	m["atlas.generate_s"] = gen

	// netsim: registry counts; per-event cost from scheduling the
	// sampled records' own instants.
	events := float64(snap.Counter("netsim_events_total"))
	m["netsim.events"] = events
	m["netsim.packets_sent"] = float64(snap.Counter("netsim_packets_sent_total"))
	m["netsim.packets_dropped"] = float64(snap.Counter("netsim_packets_dropped_total"))
	var instants []time.Duration
	for _, q := range queries {
		instants = append(instants, q.SentAt)
	}
	for _, a := range auths {
		instants = append(instants, a.rec.At)
	}
	sim := netsim.NewSimulator()
	fired := 0
	tick := func() { fired++ }
	ev := measureOps(len(instants), func(i int) { sim.ScheduleAt(instants[i], tick) })
	run := measureOps(1, func(int) { sim.Run() })
	if fired != len(instants) {
		return fmt.Errorf("netsim replay fired %d of %d events", fired, len(instants))
	}
	if n := float64(len(instants)); n > 0 {
		m["netsim.ns_per_event"] = ev.ns + run.ns/n
		m["netsim.allocs_per_event"] = ev.allocs + run.allocs/n
	}

	// resolver: registry counts; per-packet cost from resolving the
	// sampled names against the workload's zones.
	clientQ := float64(snap.Counter("resolver_client_queries_total"))
	m["resolver.client_queries"] = clientQ
	m["resolver.timeouts"] = float64(snap.Counter("resolver_timeouts_total"))
	if clientQ > 0 {
		m["resolver.upstream_per_client"] = float64(snap.Counter("resolver_upstream_queries_total")) / clientQ
		m["resolver.cache_hit_frac"] = float64(snap.Counter("resolver_cache_hits_total")) / clientQ
		m["resolver.negcache_hit_frac"] = float64(snap.Counter("resolver_negcache_hits_total")) / clientQ
	} else {
		m["resolver.upstream_per_client"], m["resolver.cache_hit_frac"], m["resolver.negcache_hit_frac"] = 0, 0, 0
	}
	fleet, err := newAuthFleet(combos)
	if err != nil {
		return err
	}
	rc := replayResolver(auths, fleet, e.seed)
	m["resolver.handle_packet_ns"] = rc.ns
	m["resolver.handle_packet_allocs"] = rc.allocs
	handlePackets := clientQ + float64(snap.Counter("resolver_upstream_answers_total"))

	// authserver + dnswire: the sampled queries as resolvers send them.
	authQ := float64(snap.Counter("authserver_queries_total"))
	m["authserver.queries"] = authQ
	m["authserver.engine_us_p50"] = mergedQuantile(snap, "authserver_response_latency_us", 0.5)
	var (
		qmsgs   []*dnswire.Message
		qwire   [][]byte
		engines []*authserver.Engine
	)
	for i, a := range auths {
		n, err := dnswire.ParseName(a.rec.QName)
		if err != nil {
			continue
		}
		q := dnswire.NewQuery(uint16(i), n, dnswire.TypeTXT)
		q.RecursionDesired = false
		q.SetEDNS0(dnswire.DefaultEDNSSize, false)
		b, err := q.Pack()
		if err != nil {
			return err
		}
		qmsgs = append(qmsgs, q)
		qwire = append(qwire, b)
		engines = append(engines, fleet.siteEngine(a.combo, a.rec.Site))
	}
	wc, err := replayWireEngines(engines, qwire, qmsgs)
	if err != nil {
		return err
	}
	ac := wc.append
	m["authserver.append_query_ns"], m["authserver.append_query_allocs"] = ac.ns, ac.allocs
	m["dnswire.unpack_ns"], m["dnswire.unpack_allocs"] = wc.unpack.ns, wc.unpack.allocs
	m["dnswire.pack_ns"], m["dnswire.pack_allocs"] = wc.pack.ns, wc.pack.allocs
	m["dnswire.bytes_per_response"] = wc.respBytes

	// analysis + plot: self time in the wrapped sinks, figure compute
	// and SVG rendering.
	m["analysis.on_query_ns"] = 0
	if traced.queries > 0 {
		m["analysis.on_query_ns"] = float64(onQuery) / float64(traced.queries)
	}
	m["analysis.agg_size"] = float64(traced.aggSize)
	m["analysis.figures_s"] = traced.figuresS
	m["plot.render_s"] = traced.renderS

	// measure: lane walls of the last run to finish.
	var lanes []float64
	for k, v := range snap.Gauges {
		if strings.HasPrefix(k, "lane_wallclock_ms{") {
			lanes = append(lanes, v/1e3)
		}
	}
	sort.Float64s(lanes)
	m["measure.lane_wall_s_max"] = maxOf(lanes)
	m["measure.lane_skew"] = 0
	if len(lanes) > 0 && lanes[0] > 0 {
		m["measure.lane_skew"] = lanes[len(lanes)-1] / lanes[0]
	}

	// lanewire: records cross it only when lane-worker children ran.
	lwRecords := 0.0
	var enc, dec opCost
	var lwBytes float64
	if traced.childCPU > 0 {
		buf := make([]byte, 0, 1<<16)
		lwRecords = records
		recs := laneRecords(queries, auths)
		const batch = 64
		var frames [][]byte
		enc = measureStable((len(recs)+batch-1)/batch, func(i int) {
			hi := min((i+1)*batch, len(recs))
			buf = lanewire.AppendBatch(buf[:0], recs[i*batch:hi])
		})
		for i := 0; i < len(recs); i += batch {
			f := lanewire.AppendBatch(nil, recs[i:min(i+batch, len(recs))])
			lwBytes += float64(len(f))
			frames = append(frames, f)
		}
		dec = measureStable(len(frames), func(i int) { _, _ = lanewire.DecodeBatch(frames[i]) })
		perBatch := float64(len(recs)) / float64(len(frames))
		enc.ns /= perBatch
		dec.ns /= perBatch
		lwBytes /= float64(len(recs))
	}
	m["lanewire.records"] = lwRecords
	m["lanewire.encode_ns_per_record"] = enc.ns
	m["lanewire.decode_ns_per_record"] = dec.ns
	m["lanewire.bytes_per_record"] = lwBytes

	// runtime: this process only (lane-worker children are separate
	// runtimes).
	m["runtime.gc_cpu_frac"] = 0
	if rs.totalCPU > 0 {
		m["runtime.gc_cpu_frac"] = rs.gcCPU / rs.totalCPU
	}
	m["runtime.allocs_per_record"] = rs.allocs / records
	m["runtime.alloc_bytes_per_record"] = rs.allocBytes / records
	m["runtime.heap_peak_mib"] = rs.heapPeak / (1 << 20)

	// The share of the traced pass's CPU time the layer costs above do
	// not explain.
	attributed := events*m["netsim.ns_per_event"] + handlePackets*rc.ns + authQ*ac.ns +
		float64(onQuery) + lwRecords*(enc.ns+dec.ns)
	attributed = attributed/1e9 + traced.figuresS + traced.renderS
	m["trace.unattributed_frac"] = 1 - attributed/traced.cpu
	m["trace.overhead_s"] = traced.run - plain.run
	return nil
}

// laneRecords converts sampled records into the lanewire form the
// worker protocol ships.
func laneRecords(queries []measure.QueryRecord, auths []replayAuth) []lanewire.Record {
	var out []lanewire.Record
	for _, q := range queries {
		out = append(out, lanewire.Record{At: q.SentAt, IsQuery: true, Q: lanewire.Query{
			ProbeID: q.ProbeID, Resolver: q.Resolver, VPKey: q.VPKey, Continent: q.Continent,
			Seq: q.Seq, SentAt: q.SentAt, RTTms: q.RTTms, Site: q.Site, OK: q.OK}})
	}
	for _, a := range auths {
		out = append(out, lanewire.Record{At: a.rec.At, A: lanewire.Auth{
			Site: a.rec.Site, Src: a.rec.Src, QName: a.rec.QName, At: a.rec.At}})
	}
	return out
}

// mergedQuantile merges every histogram whose name starts with base
// (one per site) and interpolates quantile q.
func mergedQuantile(snap obs.Snapshot, base string, q float64) float64 {
	var bounds []float64
	var counts []int64
	for k, h := range snap.Histograms {
		if k != base && !strings.HasPrefix(k, base+"{") {
			continue
		}
		if counts == nil {
			bounds = h.Bounds
			counts = make([]int64, len(h.Counts))
		}
		for i, c := range h.Counts {
			if i < len(counts) {
				counts[i] += c
			}
		}
	}
	return histQuantile(bounds, counts, q)
}

// histQuantile interpolates quantile q inside the bucket that holds
// it; counts has one more entry than bounds (the +Inf bucket).
func histQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	for i, c := range counts {
		if c > 0 && float64(seen+c) >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (rank-float64(seen))/float64(c)*(bounds[i]-lo)
		}
		seen += c
	}
	return bounds[len(bounds)-1]
}

// atlasSeconds times the population synthesis of every run a pass of
// the workload starts, with the configs the batch resolves.
func atlasSeconds(ctx context.Context, e env, name string) (float64, error) {
	var cfgs []atlas.Config
	base := []core.Option{core.WithScale(core.ScaleSmall), core.WithProbes(e.probes)}
	if name == "paper-batch" {
		for i, combo := range measure.Table1() {
			cfg, err := core.ScenarioRunConfig(core.Scenario{Name: combo.ID, ComboID: combo.ID},
				append(base, core.WithSeed(e.seed+int64(i)))...)
			if err != nil {
				return 0, err
			}
			cfgs = append(cfgs, cfg.Population)
		}
	} else {
		for _, sc := range attackMatrix() {
			cfg, err := core.ScenarioRunConfig(sc, append(base, core.WithSeed(e.seed))...)
			if err != nil {
				return 0, err
			}
			cfgs = append(cfgs, cfg.Population)
		}
	}
	t := time.Now()
	for _, c := range cfgs {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if _, err := atlas.Generate(c); err != nil {
			return 0, err
		}
	}
	return time.Since(t).Seconds(), nil
}

// wireCost is the per-call cost of the authoritative packet path.
type wireCost struct {
	append, unpack, pack opCost
	respBytes            float64
}

// replayWire replays query packets through the engine of one
// combination site, as authd serves them.
func replayWire(combo, site string, qwire [][]byte) (wireCost, error) {
	fleet, err := newAuthFleet([]string{combo})
	if err != nil {
		return wireCost{}, err
	}
	eng := fleet.siteEngine(combo, site)
	engines := make([]*authserver.Engine, len(qwire))
	qmsgs := make([]*dnswire.Message, len(qwire))
	for i, q := range qwire {
		engines[i] = eng
		if qmsgs[i], err = dnswire.Unpack(q); err != nil {
			return wireCost{}, fmt.Errorf("replay query %d: %w", i, err)
		}
	}
	return replayWireEngines(engines, qwire, qmsgs)
}

// replayWireEngines times authserver.Engine.AppendQuery on each query
// with its engine, then dnswire.Unpack and AppendPack over the queries
// and the answers.
func replayWireEngines(engines []*authserver.Engine, qwire [][]byte, qmsgs []*dnswire.Message) (wireCost, error) {
	var wc wireCost
	src := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	buf := make([]byte, 0, 4096)
	wc.append = measureStable(len(qwire), func(i int) { buf = engines[i].AppendQuery(buf[:0], src, qwire[i], 0) })
	var rwire [][]byte
	var rmsgs []*dnswire.Message
	var respBytes int
	for i := range qwire {
		r := engines[i].AppendQuery(nil, src, qwire[i], 0)
		if len(r) == 0 {
			continue
		}
		msg, err := dnswire.Unpack(r)
		if err != nil {
			return wc, fmt.Errorf("authserver replay answer: %w", err)
		}
		rwire = append(rwire, r)
		rmsgs = append(rmsgs, msg)
		respBytes += len(r)
	}
	wire := append(append([][]byte(nil), qwire...), rwire...)
	msgs := append(append([]*dnswire.Message(nil), qmsgs...), rmsgs...)
	wc.unpack = measureStable(len(wire), func(i int) { _, _ = dnswire.Unpack(wire[i]) })
	wc.pack = measureStable(len(msgs), func(i int) { buf, _ = msgs[i].AppendPack(buf[:0]) })
	if len(rwire) > 0 {
		wc.respBytes = float64(respBytes) / float64(len(rwire))
	}
	return wc, nil
}
