package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"ritw/internal/measure"
	"ritw/internal/obs"
)

func TestMain(m *testing.M) {
	// attack-lanes re-execs the test binary as its lane workers.
	if measure.MaybeRunLaneWorker() {
		return
	}
	os.Exit(m.Run())
}

// tinyEnv is a smoke-sized run: a 100-probe population and the
// shortest time budget (each workload still makes its minimum passes).
func tinyEnv(t *testing.T, trace bool) env {
	t.Helper()
	return env{seed: 3, seconds: 0.1, trace: trace, probes: 100, cores: 2, outdir: t.TempDir()}
}

// buildAuthd compiles the server serve-auth executes.
func buildAuthd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "authd")
	out, err := exec.Command("go", "build", "-o", bin, "ritw/cmd/authd").CombinedOutput()
	if err != nil {
		t.Fatalf("build authd: %v\n%s", err, out)
	}
	return bin
}

// TestMetricNamesMatchBenchmarkJSON pins the printed metric names and
// units to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark prints %s [%s], BENCHMARK.json declares %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json names %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// runTiny runs a workload at smoke size and checks it printed a valid
// result for its metric set.
func runTiny(t *testing.T, name string, e env) map[string]float64 {
	t.Helper()
	o, err := workloads[name](context.Background(), e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	r, err := result(o, defs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", name, r.Correct, r.Attempted, r.Failed, o.problems)
	}
	if !e.trace {
		for _, d := range endToEnd {
			if o.metrics[d.Name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, d.Name, o.metrics[d.Name])
			}
		}
	}
	return o.metrics
}

// TestSmoke runs every workload at smoke size, untraced and traced,
// and checks the bypass predictions: each layer a workload does not
// use reports zero work, and each layer it does use reports some.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	authd := buildAuthd(t)
	zero := func(t *testing.T, name string, m map[string]float64, keys ...string) {
		t.Helper()
		for _, k := range keys {
			if m[k] != 0 {
				t.Errorf("%s bypasses %s but it reports %v", name, k, m[k])
			}
		}
	}
	busy := func(t *testing.T, name string, m map[string]float64, keys ...string) {
		t.Helper()
		for _, k := range keys {
			if m[k] <= 0 {
				t.Errorf("%s uses %s but it reports %v", name, k, m[k])
			}
		}
	}
	simLayers := []string{"netsim.events", "netsim.ns_per_event", "resolver.client_queries",
		"resolver.handle_packet_ns", "authserver.queries", "authserver.append_query_ns",
		"dnswire.unpack_ns", "dnswire.pack_ns", "analysis.on_query_ns", "runtime.allocs_per_record"}
	// serve.qps_max is left out: on an overloaded host the knee search
	// may fail its first step and report 0.
	serveLayers := []string{"serve.p50_us_hi", "serve.cpu_us_per_query", "authserver.engine_us_p50"}
	lanewire := []string{"lanewire.records", "lanewire.encode_ns_per_record",
		"lanewire.decode_ns_per_record", "lanewire.bytes_per_record"}

	t.Run("paper-batch", func(t *testing.T) {
		runTiny(t, "paper-batch", tinyEnv(t, false))
		m := runTiny(t, "paper-batch", tinyEnv(t, true))
		busy(t, "paper-batch", m, simLayers...)
		busy(t, "paper-batch", m, "analysis.agg_size", "plot.render_s", "core.pool_busy_frac")
		zero(t, "paper-batch", m, lanewire...)
		zero(t, "paper-batch", m, "serve.qps_max", "serve.p50_us_hi", "serve.cpu_us_per_query")
	})
	t.Run("attack-lanes", func(t *testing.T) {
		runTiny(t, "attack-lanes", tinyEnv(t, false))
		m := runTiny(t, "attack-lanes", tinyEnv(t, true))
		busy(t, "attack-lanes", m, simLayers...)
		busy(t, "attack-lanes", m, lanewire...)
		busy(t, "attack-lanes", m, "measure.lane_wall_s_max", "resolver.negcache_hit_frac")
		zero(t, "attack-lanes", m, "plot.render_s", "serve.qps_max", "serve.p50_us_hi")
	})
	t.Run("serve-auth", func(t *testing.T) {
		e := tinyEnv(t, false)
		e.authd = authd
		runTiny(t, "serve-auth", e)
		e.trace = true
		m := runTiny(t, "serve-auth", e)
		busy(t, "serve-auth", m, serveLayers...)
		busy(t, "serve-auth", m, "authserver.queries", "authserver.append_query_ns", "dnswire.unpack_ns")
		zero(t, "serve-auth", m, lanewire...)
		zero(t, "serve-auth", m, "netsim.events", "netsim.packets_sent", "resolver.client_queries",
			"analysis.agg_size", "analysis.on_query_ns", "plot.render_s")
	})
}

// TestReplayFidelity checks that the record streams the layer replay
// samples are the streams the layers counted on the same run: every
// authoritative query the registry counted reached the wrapped sink
// as an auth record, and every streamed client record as a query.
func TestReplayFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traced passes")
	}
	for name, pass := range map[string]simPassFunc{"paper-batch": paperPass, "attack-lanes": attackPass} {
		t.Run(name, func(t *testing.T) {
			e := tinyEnv(t, true)
			reg := obs.NewRegistry()
			p, err := pass(context.Background(), e, newTracer(name, e.seed), true, reg, 0)
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			if got, want := p.auths, snap.Counter("authserver_queries_total"); got != want || got == 0 {
				t.Errorf("sink saw %d auth records, registry counted %d authoritative queries", got, want)
			}
			if got, want := p.queries, snap.Counter("measure_records_streamed_total"); got != want || got == 0 {
				t.Errorf("sink saw %d query records, registry streamed %d", got, want)
			}
			var sampled int
			for _, j := range p.jobs {
				sampled += len(j.sampleA)
			}
			if sampled == 0 {
				t.Error("the traced pass sampled no auth records to replay")
			}
		})
	}
}

// TestAnswerCheck exercises the load generator's own codec against the
// authserver engine authd runs.
func TestAnswerCheck(t *testing.T) {
	plan := newLoadPlan(8, 1, "t")
	fleet, err := newAuthFleet([]string{serveCombo})
	if err != nil {
		t.Fatal(err)
	}
	eng := fleet.siteEngine(serveCombo, serveSite)
	for i, q := range plan.packets {
		resp := eng.HandleQuery(siteAddr(0), q, 0)
		got, ok := checkAnswerAny(resp)
		if !ok {
			t.Fatalf("query %d: answer rejected", i)
		}
		if seq, ok := seqOf(got); !ok || seq != i || string(got) != string(plan.names[i]) {
			t.Fatalf("query %d: answer names %q (seq %d)", i, got, seq)
		}
	}
	other, err := newAuthFleet([]string{"2B"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := checkAnswerAny(other.siteEngine("2B", "DUB").HandleQuery(siteAddr(0), plan.packets[0], 0)); ok {
		t.Fatal("an answer from another site passed the check")
	}
}
