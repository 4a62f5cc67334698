package measure

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"ritw/internal/atlas"
	"ritw/internal/attacks"
	"ritw/internal/faults"
	"ritw/internal/geo"
	"ritw/internal/lanewire"
	"ritw/internal/obs"
	"ritw/internal/resolver"
)

// This file is the out-of-process lane backend (DESIGN.md §8.7). With
// RunConfig.Workers > 0 the lanes run inside `ritw lane-worker`
// subprocesses: the parent re-execs its own binary once per worker,
// hands each a laneJob over stdin, and reads the lanewire record
// stream back over stdout. Every worker pre-merges its assigned lanes
// into one canonical stream (merging under a total order is
// associative, so the grouping cannot change the final sequence), the
// parent k-way merges the worker streams, and the dataset comes out
// byte-identical to the in-process run — the same contract the shard
// layer already pins for lane counts, extended to process layouts.

// LaneWorkerCommand is the hidden argv[1] the parent passes when
// re-execing itself as a lane worker. Binaries embedding this package
// must give MaybeRunLaneWorker a chance to intercept it before their
// own argument parsing (ritw's main and the test binaries' TestMain
// both do).
const LaneWorkerCommand = "lane-worker"

// laneWorkerEnv marks a process as a worker. The parent sets it
// explicitly for the child; requiring env AND argv means a stray
// exported variable can never hijack a normal invocation.
const laneWorkerEnv = "RITW_LANE_WORKER"

// laneJobVersion guards the job-spec layout, separately from the
// lanewire frame version.
const laneJobVersion = 1

// laneJob is the complete run description a worker needs to rebuild
// its lanes' worlds from scratch: the resolved population config (not
// the parent's RunConfig, whose zero fields have already been
// defaulted), the planned layout, and which lanes this worker owns.
// It travels as JSON inside a FrameJob — control frames are not on
// the hot path, and Go's JSON round-trips every field here exactly.
type laneJob struct {
	Version int
	Worker  int
	Shards  int
	Lanes   []int
	// Obs asks the worker to keep a local obs registry and ship its
	// snapshot in the worker-done frame.
	Obs bool
	// CrashAfterBatches / CrashAfterLaneDones, when positive, make the
	// worker exit(3) right after writing that many batch / lane-done
	// frames — the test seam for kill-and-resume coverage (set via
	// testWorkerCrash, never in production).
	CrashAfterBatches   int `json:",omitempty"`
	CrashAfterLaneDones int `json:",omitempty"`

	Combo         Combination
	Interval      time.Duration
	Duration      time.Duration
	Seed          int64
	Population    atlas.Config
	ChurnRate     float64
	LossRate      float64
	ClientTimeout time.Duration
	IPv6Subset    bool
	Model         geo.PathModel
	Faults        *faults.Schedule
	Backoff       *resolver.BackoffConfig
	// Attacks/Defense are pointers with omitempty so attack-free jobs
	// serialize exactly as they did before attacks existed — which keeps
	// runFingerprint, and therefore old snapshots, valid.
	Attacks *attacks.Schedule `json:",omitempty"`
	Defense *attacks.Defenses `json:",omitempty"`
	// Mix is omitempty for the same reason: mix-free jobs serialize
	// exactly as they did before fleet mixes existed.
	Mix []atlas.PolicyShare `json:",omitempty"`
}

// laneJobFor captures the resolved run parameters. Faults is the
// schedule RunContext validated, and Population comes from the plan, so
// worker and parent cannot drift on defaulting.
func laneJobFor(cfg RunConfig, pl *runPlan, sched *faults.Schedule) laneJob {
	j := laneJob{
		Version:       laneJobVersion,
		Shards:        pl.nShards,
		Combo:         cfg.Combo,
		Interval:      cfg.Interval,
		Duration:      cfg.Duration,
		Seed:          cfg.Seed,
		Population:    pl.popCfg,
		ChurnRate:     cfg.ChurnRate,
		LossRate:      cfg.LossRate,
		ClientTimeout: cfg.ClientTimeout,
		IPv6Subset:    cfg.IPv6Subset,
		Model:         pl.model,
		Faults:        sched,
		Backoff:       cfg.Backoff,
	}
	if !cfg.Attacks.Empty() {
		j.Attacks = cfg.Attacks
	}
	if cfg.Defense != (attacks.Defenses{}) {
		d := cfg.Defense
		j.Defense = &d
	}
	if len(cfg.Mix) > 0 {
		j.Mix = cfg.Mix
	}
	return j
}

// runConfig rebuilds the worker-side RunConfig from the job.
func (j *laneJob) runConfig() RunConfig {
	cfg := RunConfig{
		Combo:         j.Combo,
		Interval:      j.Interval,
		Duration:      j.Duration,
		Seed:          j.Seed,
		Population:    j.Population,
		ChurnRate:     j.ChurnRate,
		LossRate:      j.LossRate,
		ClientTimeout: j.ClientTimeout,
		IPv6Subset:    j.IPv6Subset,
		Backoff:       j.Backoff,
	}
	cfg.Attacks = j.Attacks
	if j.Defense != nil {
		cfg.Defense = *j.Defense
	}
	cfg.Mix = j.Mix
	return cfg
}

// runFingerprint hashes the stream-shaping parameters for snapshot
// compatibility checks. Layout fields (shards, workers) are
// excluded because byte-identity makes layouts interchangeable, and
// Duration is excluded because the simulation is causal: a longer run
// reproduces a shorter run's stream as a prefix, which is what allows
// extending a finished replay from its snapshot.
func runFingerprint(cfg RunConfig, pl *runPlan, sched *faults.Schedule) uint64 {
	j := laneJobFor(cfg, pl, sched)
	j.Shards = 0
	j.Duration = 0
	b, err := json.Marshal(&j)
	if err != nil {
		// Every field is a plain value; Marshal cannot fail on them.
		panic("measure: fingerprinting lane job: " + err.Error())
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// laneDoneMsg reports one finished lane (FrameLaneDone payload). It is
// written the moment the lane's simulation settles — not at worker
// exit — so a worker that dies later still leaves the parent this
// lane's report (WorkerError.Partial).
type laneDoneMsg struct {
	Lane    int
	Records int64
	WallNs  int64
	Report  *faults.Report
	Attacks *attacks.Report `json:",omitempty"`
}

// workerDoneMsg ends a worker's stream (FrameWorkerDone payload).
type workerDoneMsg struct {
	Obs *obs.Snapshot
}

// errorMsg carries a worker-side failure (FrameError payload).
type errorMsg struct {
	Error string
}

// WorkerError is a lane-worker subprocess failure: crash, protocol
// corruption, or a lane error inside the worker. Partial carries the
// merged fault reports of the lanes that finished before the failure,
// so long campaigns keep the evidence they already earned.
type WorkerError struct {
	// Worker is the failed worker's index.
	Worker int
	// Lanes are the lanes the worker was assigned; Done the subset that
	// completed (lane-done received) before the failure.
	Lanes []int
	Done  []int
	// Partial merges the fault reports of Done (nil when the run has no
	// fault schedule).
	Partial *faults.Report
	// Err is the underlying failure.
	Err error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("measure: lane worker %d (lanes %v, %d finished): %v",
		e.Worker, e.Lanes, len(e.Done), e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// testWorkerCrash, when set (tests only), injects crash points into
// each spawned worker's job; see laneJob.CrashAfterBatches.
var testWorkerCrash func(worker int) (batches, laneDones int)

// processLanes is the multi-process backend: lanes round-robined over
// `workers` subprocesses, one sorted stream per worker.
type processLanes struct {
	exe     string
	workers int
	lanes   int
}

func newProcessLanes(workers, lanes int) (*processLanes, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("measure: locating worker executable: %w", err)
	}
	return &processLanes{exe: exe, workers: workers, lanes: lanes}, nil
}

func (p *processLanes) streams() int { return p.workers }

func (p *processLanes) runLanes(ctx context.Context, cancel context.CancelCauseFunc, cfg RunConfig, pl *runPlan, sched *faults.Schedule, outs []chan<- []emitted, metrics *obs.Registry) ([]laneReport, error) {
	base := laneJobFor(cfg, pl, sched)
	assign := make([][]int, p.workers)
	for l := 0; l < p.lanes; l++ {
		assign[l%p.workers] = append(assign[l%p.workers], l)
	}
	reports := make([]laneReport, p.lanes)
	errs := make([]error, p.workers)
	var wg sync.WaitGroup
	for w := range assign {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Cancel before close: sibling workers (killed via their
			// CommandContext) and the parent merge both see the failure
			// before this stream ends, so the snapshotter never
			// checkpoints a post-crash suffix as if it were canonical.
			defer close(outs[w])
			errs[w] = p.runWorker(ctx, base, w, assign[w], outs[w], reports, metrics)
			if errs[w] != nil {
				cancel(errs[w])
			}
		}(w)
	}
	wg.Wait()
	return reports, firstLaneError(ctx, errs)
}

// runWorker spawns one subprocess, feeds it its job, and pumps its
// stream: batches to the merger, lane-dones into reports/metrics, the
// final registry snapshot into metrics.
func (p *processLanes) runWorker(ctx context.Context, job laneJob, w int, lanes []int, out chan<- []emitted, reports []laneReport, metrics *obs.Registry) error {
	job.Worker = w
	job.Lanes = lanes
	job.Obs = metrics != nil
	if hook := testWorkerCrash; hook != nil {
		job.CrashAfterBatches, job.CrashAfterLaneDones = hook(w)
	}
	payload, err := json.Marshal(&job)
	if err != nil {
		return err
	}

	cmd := exec.CommandContext(ctx, p.exe, LaneWorkerCommand)
	cmd.Env = append(os.Environ(), laneWorkerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("measure: starting lane worker %d: %w", w, err)
	}

	jw := lanewire.NewWriter(stdin)
	jobErr := jw.WriteFrame(lanewire.FrameJob, 0, payload)
	stdin.Close()

	var done []int
	var partials []*faults.Report
	loopErr := jobErr
	jr := lanewire.NewReader(stdout)
read:
	for loopErr == nil {
		fr, ferr := jr.ReadFrame()
		if ferr != nil {
			loopErr = ferr
			break
		}
		switch fr.Type {
		case lanewire.FrameBatch:
			recs, derr := lanewire.DecodeBatch(fr.Payload)
			if derr != nil {
				loopErr = derr
				break read
			}
			batch := make([]emitted, len(recs))
			for i := range recs {
				batch[i] = emittedFromWire(&recs[i])
			}
			out <- batch
		case lanewire.FrameLaneDone:
			var ld laneDoneMsg
			if derr := json.Unmarshal(fr.Payload, &ld); derr != nil {
				loopErr = derr
				break read
			}
			if ld.Lane < 0 || ld.Lane >= len(reports) {
				loopErr = fmt.Errorf("lane-done for unknown lane %d", ld.Lane)
				break read
			}
			reports[ld.Lane] = laneReport{Faults: ld.Report, Attacks: ld.Attacks}
			if ld.Report != nil {
				partials = append(partials, ld.Report)
			}
			done = append(done, ld.Lane)
			observeLane(metrics, ld.Lane, ld.Records, time.Duration(ld.WallNs))
		case lanewire.FrameWorkerDone:
			var wd workerDoneMsg
			if derr := json.Unmarshal(fr.Payload, &wd); derr != nil {
				loopErr = derr
				break read
			}
			if wd.Obs != nil && metrics != nil {
				if merr := metrics.Merge(*wd.Obs); merr != nil {
					loopErr = merr
				}
			}
			break read
		case lanewire.FrameError:
			var em errorMsg
			if json.Unmarshal(fr.Payload, &em) == nil && em.Error != "" {
				loopErr = errors.New(em.Error)
			} else {
				loopErr = fmt.Errorf("worker reported an unparseable error: %q", fr.Payload)
			}
			break read
		default:
			loopErr = fmt.Errorf("unexpected frame type %d", fr.Type)
			break read
		}
	}
	waitErr := cmd.Wait()

	if errors.Is(loopErr, io.EOF) {
		// Stream ended before worker-done: the process died mid-run.
		if waitErr != nil {
			loopErr = fmt.Errorf("exited before finishing: %w", waitErr)
		} else {
			loopErr = fmt.Errorf("stream ended before worker-done: %w", io.ErrUnexpectedEOF)
		}
	}
	if loopErr == nil && waitErr != nil {
		loopErr = waitErr
	}
	if loopErr == nil && len(done) != len(lanes) {
		loopErr = fmt.Errorf("worker finished having reported %d of %d lanes", len(done), len(lanes))
	}
	if loopErr == nil {
		return nil
	}
	if ctx.Err() != nil {
		// The parent cancelled (a sibling failed, or the run's caller
		// gave up) and CommandContext killed the child: report the
		// cancellation, not the kill's artifacts. firstLaneError
		// resolves the true cause from the context.
		return ctx.Err()
	}
	return &WorkerError{
		Worker:  w,
		Lanes:   lanes,
		Done:    done,
		Partial: faults.MergeReports(partials...),
		Err:     loopErr,
	}
}

// MaybeRunLaneWorker checks whether this process was spawned as a lane
// worker (argv[1] == LaneWorkerCommand and the worker env marker set)
// and, if so, runs the worker protocol over stdin/stdout and exits.
// Call it first thing in main() — and in TestMain for any test binary
// whose package spawns workers, since tests re-exec the test binary.
func MaybeRunLaneWorker() bool {
	if os.Getenv(laneWorkerEnv) != "1" || len(os.Args) < 2 || os.Args[1] != LaneWorkerCommand {
		return false
	}
	if err := RunLaneWorker(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ritw lane-worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
	return true // unreachable
}

// workerWriter serializes frame writes from the merge goroutine
// (batches) and the lane goroutines (lane-dones), flushing after every
// frame so the parent sees progress — and partial results survive a
// crash. It also hosts the injected-crash countdowns.
type workerWriter struct {
	mu      sync.Mutex
	w       *lanewire.Writer
	flush   func() error
	err     error
	batches int
	dones   int
	crashB  int
	crashD  int
}

func (ww *workerWriter) frame(t lanewire.FrameType, lane int, payload []byte) {
	ww.mu.Lock()
	defer ww.mu.Unlock()
	if ww.err != nil {
		return
	}
	if err := ww.w.WriteFrame(t, lane, payload); err != nil {
		ww.err = err
		return
	}
	if err := ww.flush(); err != nil {
		ww.err = err
		return
	}
	switch t {
	case lanewire.FrameBatch:
		ww.batches++
		if ww.crashB > 0 && ww.batches >= ww.crashB {
			os.Exit(3) // injected crash: simulates a SIGKILLed worker
		}
	case lanewire.FrameLaneDone:
		ww.dones++
		if ww.crashD > 0 && ww.dones >= ww.crashD {
			os.Exit(3)
		}
	}
}

// RunLaneWorker is the worker-process side of the protocol: read one
// job frame, run the assigned lanes pre-merged into one canonical
// stream of batch frames, report each lane as it finishes, then send
// the worker-done frame (with the local obs snapshot) and return.
func RunLaneWorker(in io.Reader, out io.Writer) error {
	jr := lanewire.NewReader(in)
	fr, err := jr.ReadFrame()
	if err != nil {
		return fmt.Errorf("reading job: %w", err)
	}
	if fr.Type != lanewire.FrameJob {
		return fmt.Errorf("first frame is type %d, want job", fr.Type)
	}
	var job laneJob
	if err := json.Unmarshal(fr.Payload, &job); err != nil {
		return fmt.Errorf("parsing job: %w", err)
	}
	if job.Version != laneJobVersion {
		return fmt.Errorf("job version %d, this worker speaks %d", job.Version, laneJobVersion)
	}

	cfg := job.runConfig()
	pop, err := atlas.Generate(job.Population)
	if err != nil {
		return err
	}
	pl := planRun(cfg, pop, job.Model, job.Shards)
	pl.popCfg = job.Population
	for _, l := range job.Lanes {
		if l < 0 || l >= pl.nShards {
			return fmt.Errorf("assigned lane %d outside 0..%d", l, pl.nShards-1)
		}
	}
	var reg *obs.Registry
	if job.Obs {
		reg = obs.NewRegistry()
	}

	bw := bufio.NewWriterSize(out, 64<<10)
	ww := &workerWriter{
		w:      lanewire.NewWriter(bw),
		flush:  bw.Flush,
		crashB: job.CrashAfterBatches,
		crashD: job.CrashAfterLaneDones,
	}

	// Run the assigned lanes exactly like goroutineLanes would, but
	// merge locally and ship the merged stream as batch frames.
	lctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	chans := make([]chan []emitted, len(job.Lanes))
	errs := make([]error, len(job.Lanes))
	var wg sync.WaitGroup
	for i, lane := range job.Lanes {
		chans[i] = make(chan []emitted, 8)
		wg.Add(1)
		go func(i, lane int) {
			defer wg.Done()
			defer close(chans[i])
			start := time.Now()
			report, n, err := runOneShard(lctx, cfg, pl, job.Faults, lane, chans[i], reg)
			errs[i] = err
			if err != nil {
				cancel(err)
				return
			}
			// Report the lane immediately — not at worker exit — so a
			// later crash still leaves the parent this lane's results.
			payload, merr := json.Marshal(&laneDoneMsg{
				Lane:    lane,
				Records: n,
				WallNs:  int64(time.Since(start)),
				Report:  report.Faults,
				Attacks: report.Attacks,
			})
			if merr != nil {
				errs[i] = merr
				cancel(merr)
				return
			}
			ww.frame(lanewire.FrameLaneDone, lane, payload)
		}(i, lane)
	}

	var batch []emitted
	var wire []lanewire.Record
	ship := func() {
		wire = wire[:0]
		for i := range batch {
			wire = append(wire, wireFromEmitted(&batch[i]))
		}
		ww.frame(lanewire.FrameBatch, 0, lanewire.AppendBatch(nil, wire))
		batch = batch[:0]
	}
	mergeStreams(chans, func(_ int, rec emitted) {
		if lctx.Err() != nil || ww.err != nil {
			return // drain without shipping; the error frame follows
		}
		batch = append(batch, rec)
		if len(batch) >= emitBatchTarget {
			ship()
		}
	})
	wg.Wait()

	if err := firstLaneError(lctx, errs); err != nil {
		payload, _ := json.Marshal(&errorMsg{Error: err.Error()})
		ww.frame(lanewire.FrameError, 0, payload)
		return err
	}
	if len(batch) > 0 {
		ship()
	}
	var snap *obs.Snapshot
	if reg != nil {
		s := reg.Snapshot()
		snap = &s
	}
	payload, err := json.Marshal(&workerDoneMsg{Obs: snap})
	if err != nil {
		return err
	}
	ww.frame(lanewire.FrameWorkerDone, 0, payload)
	return ww.err
}

// wireFromEmitted / emittedFromWire convert between the engine's
// internal record representation and the lanewire mirror types (the
// mirror exists so lanewire does not import measure).
func wireFromEmitted(rec *emitted) lanewire.Record {
	w := lanewire.Record{At: rec.at, IsQuery: rec.query}
	if rec.query {
		w.Q = lanewire.Query{
			ProbeID:   rec.q.ProbeID,
			Resolver:  rec.q.Resolver,
			VPKey:     rec.q.VPKey,
			Continent: rec.q.Continent,
			Seq:       rec.q.Seq,
			SentAt:    rec.q.SentAt,
			RTTms:     rec.q.RTTms,
			Site:      rec.q.Site,
			OK:        rec.q.OK,
		}
	} else {
		w.A = lanewire.Auth{
			Site:  rec.a.Site,
			Src:   rec.a.Src,
			QName: rec.a.QName,
			At:    rec.a.At,
		}
	}
	return w
}

func emittedFromWire(w *lanewire.Record) emitted {
	rec := emitted{at: w.At, query: w.IsQuery}
	if w.IsQuery {
		rec.q = QueryRecord{
			ProbeID:   w.Q.ProbeID,
			Resolver:  w.Q.Resolver,
			VPKey:     w.Q.VPKey,
			Continent: w.Q.Continent,
			Seq:       w.Q.Seq,
			SentAt:    w.Q.SentAt,
			RTTms:     w.Q.RTTms,
			Site:      w.Q.Site,
			OK:        w.Q.OK,
		}
	} else {
		rec.a = AuthRecord{
			Site:  w.A.Site,
			Src:   w.A.Src,
			QName: w.A.QName,
			At:    w.A.At,
		}
	}
	return rec
}
