package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ritw/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden outputs under testdata/golden")

// TestGoldenOutputs pins the exact text of every figure and table
// command at a fixed seed against checked-in goldens.
// Any numeric drift — an RNG stream reordered, a default changed, an
// aggregator losing exactness — shows up as a readable text diff in CI
// rather than as silently different science. Regenerate deliberately
// with: go test ./cmd/ritw -run TestGoldenOutputs -update
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full figure suite")
	}
	runGoldenSuite(t, 0, 0, *updateGolden)
}

// crosscheckShards reads the CI shard-count override (default def).
func crosscheckShards(t *testing.T, def int) int {
	t.Helper()
	env := os.Getenv("RITW_CROSSCHECK_SHARDS")
	if env == "" {
		return def
	}
	n, err := strconv.Atoi(env)
	if err != nil || n < 1 {
		t.Fatalf("bad RITW_CROSSCHECK_SHARDS=%q", env)
	}
	return n
}

// TestGoldenOutputsSharded replays the full figure suite split across
// simulation shards and demands the exact bytes of the sequential
// goldens: the CLI-level pin of the sharded engine's byte-identity
// contract. An odd shard count stresses the canonical merge with
// uneven lanes. RITW_CROSSCHECK_SHARDS elevates the shard count for
// the CI race job.
func TestGoldenOutputsSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full figure suite")
	}
	runGoldenSuite(t, crosscheckShards(t, 3), 0, false)
}

// crosscheckWorkers reads the CI worker-count override (default def).
func crosscheckWorkers(t *testing.T, def int) int {
	t.Helper()
	env := os.Getenv("RITW_CROSSCHECK_WORKERS")
	if env == "" {
		return def
	}
	n, err := strconv.Atoi(env)
	if err != nil || n < 1 {
		t.Fatalf("bad RITW_CROSSCHECK_WORKERS=%q", env)
	}
	return n
}

// TestGoldenOutputsWorkers replays the full figure suite with every
// run's lanes distributed over `ritw lane-worker` subprocesses (the
// test binary re-execs itself; see TestMain) and demands the exact
// bytes of the sequential goldens: the CLI-level pin of the lanewire
// engine's byte-identity contract across process layouts.
// RITW_CROSSCHECK_WORKERS elevates the worker count for the CI
// multiprocess cross-check job.
func TestGoldenOutputsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full figure suite over subprocess workers")
	}
	workers := crosscheckWorkers(t, 2)
	shards := crosscheckShards(t, 4)
	if shards < workers {
		shards = workers
	}
	runGoldenSuite(t, shards, workers, false)
}

// pinGoldenFlags sets the CLI flags every golden run shares — the
// pinned seed and population, exact sketches, no side outputs, the
// population's own resolver kinds — plus the lane layout, and restores
// them when the test ends.
func pinGoldenFlags(t *testing.T, shards, workers int) {
	t.Helper()
	oldSeed, oldProbes, oldMaxMem, oldMix := *seed, *probesFlag, *maxMem, mixShares
	oldPlot, oldOut, oldParallel := *plotDir, *outFile, *parallel
	oldShards, oldWorkers := *shardsFlag, *workersFlag
	t.Cleanup(func() {
		*seed, *probesFlag, *maxMem, mixShares = oldSeed, oldProbes, oldMaxMem, oldMix
		*plotDir, *outFile, *parallel = oldPlot, oldOut, oldParallel
		*shardsFlag, *workersFlag = oldShards, oldWorkers
		table1Cache = nil
	})
	*seed, *probesFlag, *maxMem, mixShares = 7, 150, 0, nil
	*plotDir, *outFile, *parallel = "", "", 4
	*shardsFlag, *workersFlag = shards, workers
	table1Cache = nil
}

// checkGolden compares one command's output with
// testdata/golden/<name>.txt, or rewrites that file when update is set.
func checkGolden(t *testing.T, name, got string, shards, workers int, update bool) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: missing golden (run with -update to create): %v", name, err)
	}
	if got != string(want) {
		t.Errorf("%s (shards=%d workers=%d) output drifted from %s\n--- got ---\n%s--- want ---\n%s",
			name, shards, workers, path, got, want)
	}
}

// runGoldenSuite executes every figure/table command at the pinned
// seed and compares (or, with update, rewrites) the goldens. shards=0
// runs the single sequential lane that defines the golden bytes, and
// workers selects the subprocess layout (the goldens must not depend
// on either).
func runGoldenSuite(t *testing.T, shards, workers int, update bool) {
	t.Helper()
	pinGoldenFlags(t, shards, workers)
	cmds := []struct {
		name string
		fn   func(context.Context, core.Scale) error
	}{
		{"table1", cmdTable1}, {"fig2", cmdFig2}, {"fig3", cmdFig3},
		{"fig4", cmdFig4}, {"table2", cmdTable2}, {"fig5", cmdFig5},
		{"fig6", cmdFig6}, {"fig7root", cmdFig7Root}, {"fig7nl", cmdFig7NL},
		{"middlebox", cmdMiddlebox}, {"ipv6", cmdIPv6}, {"hardening", cmdHardening},
		{"outage", cmdOutage}, {"openres", cmdOpenResolver},
	}
	for _, c := range cmds {
		got := captureStdout(t, func() error {
			return c.fn(context.Background(), core.ScaleSmall)
		})
		checkGolden(t, c.name, got, shards, workers, update)
	}
}
