package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serve-auth load settings. Rates are aggregate over all senders.
const (
	serveLoRate    = 2000
	serveHiRate    = 10000
	servePhase     = 3 * time.Second
	serveWarmup    = 500 * time.Millisecond // excluded from latency stats
	serveDrain     = 500 * time.Millisecond // wait for answers after the last send
	serveLossLimit = 0.001
	// fixedRateLossLimit is the loss a fixed-rate phase may show before
	// the run fails. On a shared host authd can go unscheduled for tens
	// of milliseconds, and a stall longer than its socket buffer holds
	// (about 270 queries) drops the overflow; those losses are reported
	// (serve.loss_frac_hi), and only a loss rate no stall explains fails
	// the run. The closed-loop saturation passes never overfill the
	// buffer, so any loss there fails.
	fixedRateLossLimit = 0.01
	serveP99LimitUs    = 5000.0
	// serveLateLimitUs rejects a fixed-rate phase whose generator ran
	// this late at p99: its offered rate was not the stated one.
	serveLateLimitUs = 20000.0
	serveSetups      = 15
	// A saturation pass pushes satQueries through a closed loop of
	// satWindow outstanding queries per sender.
	satQueries = 60000
	satWindow  = 32
	satTimeout = 200 * time.Millisecond
	serveCombo = "2C"
	serveSite  = "FRA"
)

// authdProc is a running authd child.
type authdProc struct {
	cmd     *exec.Cmd
	addr    *net.UDPAddr
	metrics string
	done    chan struct{}
}

// startAuthd executes authd on an ephemeral loopback port and returns
// once it has answered a query correctly, with the time that took.
func startAuthd(ctx context.Context, bin string, withMetrics bool, seed int64) (*authdProc, float64, error) {
	if bin == "" {
		return nil, 0, errors.New("no authd binary given (-authd)")
	}
	args := []string{"-addr", "127.0.0.1:0", "-combo", serveCombo, "-site", serveSite}
	var metricsAddr string
	if withMetrics {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		metricsAddr = ln.Addr().String()
		ln.Close()
		args = append(args, "-metrics-addr", metricsAddr)
	}
	cmd := exec.Command(bin, args...)
	// The server dies with the benchmark, even if the benchmark is
	// killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start authd: %w", err)
	}
	p := &authdProc{cmd: cmd, metrics: metricsAddr, done: make(chan struct{})}
	addrc := make(chan string, 1)
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); !sent && strings.Contains(line, "serving ") && i >= 0 {
				addrc <- strings.TrimSpace(line[i+4:])
				sent = true
			}
		}
	}()
	go func() {
		<-logDone
		_ = cmd.Wait()
		close(p.done)
	}()

	var addr string
	select {
	case addr = <-addrc:
	case <-p.done:
		return nil, 0, errors.New("authd exited before serving")
	case <-time.After(10 * time.Second):
		p.stop()
		return nil, 0, errors.New("authd did not report its address within 10s")
	case <-ctx.Done():
		p.stop()
		return nil, 0, ctx.Err()
	}
	p.addr, err = net.ResolveUDPAddr("udp", addr)
	if err != nil {
		p.stop()
		return nil, 0, err
	}
	if err := p.firstAnswer(ctx, seed); err != nil {
		p.stop()
		return nil, 0, err
	}
	return p, time.Since(t0).Seconds(), nil
}

// firstAnswer queries until authd returns a correct answer.
func (p *authdProc) firstAnswer(ctx context.Context, seed int64) error {
	conn, err := net.DialUDP("udp", nil, p.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	name := qname(fmt.Sprintf("setup-%x", seed))
	q := appendQuery(nil, 1, name)
	buf := make([]byte, 2048)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := conn.Write(q); err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
		n, err := conn.Read(buf)
		if err != nil {
			continue
		}
		if got, ok := checkAnswer(buf[:n], 1); ok && string(got) == string(name) {
			return nil
		}
	}
	return errors.New("authd gave no correct answer within 10s")
}

// stop terminates authd and waits until it has been reaped.
func (p *authdProc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(3 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// cpuSeconds is authd's user plus system time so far, summed over its
// threads at nanosecond resolution.
func (p *authdProc) cpuSeconds() float64 {
	pid := p.cmd.Process.Pid
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		f := strings.Fields(string(b))
		if len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	return ns / 1e9
}

// peakRSSMiB is authd's resident high-water mark.
func (p *authdProc) peakRSSMiB() float64 {
	kib, _ := statusKiB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid), "VmHWM:")
	return kib / 1024
}

// scrape reads authd's /metrics text into name -> value.
func (p *authdProc) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.metrics+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape authd metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// qname is the wire form of label.ourtestdomain.nl.
func qname(label string) []byte {
	b := []byte{byte(len(label))}
	b = append(b, label...)
	for _, l := range []string{"ourtestdomain", "nl"} {
		b = append(b, byte(len(l)))
		b = append(b, l...)
	}
	return append(b, 0)
}

// appendQuery encodes a TXT query for name with EDNS0 (1232 bytes, DO
// set), as validating resolvers send them. The benchmark carries its
// own encoder so the load it offers does not depend on the codec under
// test.
func appendQuery(dst []byte, id uint16, name []byte) []byte {
	dst = append(dst, byte(id>>8), byte(id), 0, 0, 0, 1, 0, 0, 0, 0, 0, 1)
	dst = append(dst, name...)
	dst = append(dst, 0, 16, 0, 1)                         // TXT IN
	dst = append(dst, 0, 0, 41, 0x04, 0xd0, 0, 0, 0x80, 0) // OPT, 1232, DO
	return append(dst, 0, 0)
}

// skipName advances past a possibly compressed name.
func skipName(b []byte, off int) (int, bool) {
	for off < len(b) {
		l := int(b[off])
		switch {
		case l == 0:
			return off + 1, true
		case l&0xc0 == 0xc0:
			return off + 2, off+2 <= len(b)
		default:
			off += 1 + l
		}
	}
	return 0, false
}

var wantTXT = []byte("site=" + serveSite)

// checkAnswer validates a response to query id: NOERROR, one question
// (returned, in wire form), and a first answer that is a TXT record
// naming the serving site.
func checkAnswer(b []byte, id uint16) ([]byte, bool) {
	if len(b) < 12 || uint16(b[0])<<8|uint16(b[1]) != id {
		return nil, false
	}
	if b[2]&0x80 == 0 || b[3]&0x0f != 0 { // QR, RCODE
		return nil, false
	}
	if b[4] != 0 || b[5] != 1 || (b[6] == 0 && b[7] == 0) {
		return nil, false
	}
	qend, ok := skipName(b, 12)
	if !ok || qend+4 > len(b) {
		return nil, false
	}
	q := b[12:qend]
	off, ok := skipName(b, qend+4)
	if !ok || off+10 > len(b) {
		return nil, false
	}
	typ := uint16(b[off])<<8 | uint16(b[off+1])
	rdlen := int(b[off+8])<<8 | int(b[off+9])
	rd := off + 10
	if typ != 16 || rd+rdlen > len(b) || rdlen < 1 {
		return nil, false
	}
	txt := b[rd+1 : rd+1+min(int(b[rd]), rdlen-1)]
	if string(txt) != string(wantTXT) {
		return nil, false
	}
	return q, true
}

// loadPlan is the query set of one phase. Query i carries the unique
// label q<i>-<seeded random>, so every answer names the query it
// answers.
type loadPlan struct {
	names   [][]byte
	packets [][]byte
}

func newLoadPlan(n int, seed int64, phase string) *loadPlan {
	rng := rand.New(rand.NewSource(seed ^ int64(len(phase))<<40 ^ int64(phase[0])<<48))
	p := &loadPlan{names: make([][]byte, n), packets: make([][]byte, n)}
	for i := 0; i < n; i++ {
		p.names[i] = qname(fmt.Sprintf("q%x-%s%x", i, phase, rng.Uint32()))
		p.packets[i] = appendQuery(nil, uint16(i), p.names[i])
	}
	return p
}

// seqOf decodes the query index from a label q<i>-...
func seqOf(q []byte) (int, bool) {
	if len(q) < 3 || q[1] != 'q' {
		return 0, false
	}
	end := 2
	for end < 1+int(q[0]) && q[end] != '-' {
		end++
	}
	v, err := strconv.ParseUint(string(q[2:end]), 16, 32)
	return int(v), err == nil
}

// phaseStats is one load phase's accounting and timings.
type phaseStats struct {
	sent, answered, lost, wrong int
	wall                        float64
	latUs, lateUs               []float64
	cpu                         float64
}

// tally records answers for a phase. Receivers of different senders
// write disjoint indexes; the counters are per receiver.
type tally struct {
	plan    *loadPlan
	recvAt  []int64 // ns since phase start; 0 = unanswered
	matched int
	wrong   int
}

func (t *tally) receive(b []byte, at int64) {
	q, ok := checkAnswerAny(b)
	if !ok {
		t.wrong++
		return
	}
	i, ok := seqOf(q)
	if !ok || i >= len(t.plan.names) || string(q) != string(t.plan.names[i]) ||
		uint16(b[0])<<8|uint16(b[1]) != uint16(i) || t.recvAt[i] != 0 {
		t.wrong++
		return
	}
	t.recvAt[i] = at
	t.matched++
}

// checkAnswerAny validates a response whose ID the caller checks.
func checkAnswerAny(b []byte) ([]byte, bool) {
	if len(b) < 2 {
		return nil, false
	}
	return checkAnswer(b, uint16(b[0])<<8|uint16(b[1]))
}

// openLoop offers plan at rate queries/s from senders sockets, each
// query due at i/rate after the start whatever the server does, and
// times every answer from its due time.
func openLoop(ctx context.Context, p *authdProc, plan *loadPlan, rate float64, senders int) (*phaseStats, error) {
	n := len(plan.packets)
	recvAt := make([]int64, n)
	sentAt := make([]int64, n)
	conns, err := dialSenders(p.addr, senders)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	dueNs := func(i int) int64 { return int64(float64(i) / rate * 1e9) }
	end := dueNs(n-1) + int64(serveDrain)
	cpu0 := p.cpuSeconds()
	start := time.Now()
	tallies := make([]*tally, senders)
	errs := make([]error, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		t := &tally{plan: plan, recvAt: recvAt}
		tallies[s] = t
		wg.Add(2)
		go func(c *net.UDPConn) {
			defer wg.Done()
			_ = c.SetReadDeadline(start.Add(time.Duration(end)))
			buf := make([]byte, 4096)
			for {
				m, err := c.Read(buf)
				if err != nil {
					return
				}
				t.receive(buf[:m], time.Since(start).Nanoseconds())
			}
		}(conns[s])
		go func(s int, c *net.UDPConn) {
			defer wg.Done()
			for i := s; i < n; i += senders {
				if ctx.Err() != nil {
					errs[s] = ctx.Err()
					return
				}
				due := dueNs(i)
				if wait := due - time.Since(start).Nanoseconds(); wait > 0 {
					time.Sleep(time.Duration(wait))
				}
				sentAt[i] = time.Since(start).Nanoseconds()
				if _, err := c.Write(plan.packets[i]); err != nil {
					sentAt[i] = -sentAt[i] // a failed send is a lost query
				}
			}
		}(s, conns[s])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	st := &phaseStats{sent: n, wall: time.Since(start).Seconds(), cpu: p.cpuSeconds() - cpu0}
	for _, t := range tallies {
		st.answered += t.matched
		st.wrong += t.wrong
	}
	warm := int64(serveWarmup)
	for i := 0; i < n; i++ {
		if recvAt[i] == 0 {
			st.lost++
		}
		due := dueNs(i)
		if due < warm {
			continue
		}
		st.lateUs = append(st.lateUs, float64(abs64(sentAt[i])-due)/1e3)
		if recvAt[i] == 0 {
			// A lost query misses every limit: it counts with the whole
			// time it was waited for.
			st.latUs = append(st.latUs, float64(end-due)/1e3)
		} else {
			st.latUs = append(st.latUs, float64(recvAt[i]-due)/1e3)
		}
	}
	return st, nil
}

// dialSenders opens one connected UDP socket per sender.
func dialSenders(addr *net.UDPAddr, senders int) ([]*net.UDPConn, error) {
	conns := make([]*net.UDPConn, 0, senders)
	for s := 0; s < senders; s++ {
		c, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		_ = c.SetReadBuffer(4 << 20) // capped by the host's rmem_max
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []*net.UDPConn) {
	for _, c := range conns {
		c.Close()
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// closedLoop pushes plan through with window queries outstanding per
// sender: a new query goes out as soon as an answer comes back. It
// measures how fast authd serves a fixed amount of work.
func closedLoop(ctx context.Context, p *authdProc, plan *loadPlan, window, senders int) (*phaseStats, error) {
	n := len(plan.packets)
	recvAt := make([]int64, n)
	conns, err := dialSenders(p.addr, senders)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	cpu0 := p.cpuSeconds()
	start := time.Now()
	tallies := make([]*tally, senders)
	errs := make([]error, senders)
	lastAt := make([]int64, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		t := &tally{plan: plan, recvAt: recvAt}
		tallies[s] = t
		wg.Add(1)
		go func(s int, c *net.UDPConn) {
			defer wg.Done()
			next := s
			send := func() {
				_, _ = c.Write(plan.packets[next]) // a failed send shows as a lost query
				next += senders
			}
			inflight := 0
			for ; inflight < window && next < n; inflight++ {
				send()
			}
			buf := make([]byte, 4096)
			for inflight > 0 {
				if ctx.Err() != nil {
					errs[s] = ctx.Err()
					return
				}
				_ = c.SetReadDeadline(time.Now().Add(satTimeout))
				m, err := c.Read(buf)
				if err != nil {
					// Everything outstanding is given up on; refill.
					inflight = 0
				} else {
					at := time.Since(start).Nanoseconds()
					t.receive(buf[:m], at)
					lastAt[s] = at
					if inflight > 0 { // a late answer to a given-up query refills nothing
						inflight--
					}
				}
				for ; inflight < window && next < n; inflight++ {
					send()
				}
			}
		}(s, conns[s])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	st := &phaseStats{sent: n, cpu: p.cpuSeconds() - cpu0}
	st.wall = float64(maxInt64(lastAt)) / 1e9
	for _, t := range tallies {
		st.answered += t.matched
		st.wrong += t.wrong
	}
	for i := 0; i < n; i++ {
		if recvAt[i] == 0 {
			st.lost++
		}
	}
	return st, nil
}

func maxInt64(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// account adds a phase to the outcome: every query is an attempt;
// wrong or malformed answers, a broken sent == answered + lost
// identity, and losses above lossLimit (a share of sent) are failures.
func account(o *outcome, name string, st *phaseStats, lossLimit float64) {
	o.attempted += st.sent
	if st.sent != st.answered+st.lost {
		o.fail("%s: sent %d != answered %d + lost %d", name, st.sent, st.answered, st.lost)
	}
	if st.wrong > 0 {
		o.failed += st.wrong
		o.problems = append(o.problems, fmt.Sprintf("%s: %d wrong or malformed answers", name, st.wrong))
	}
	if float64(st.lost) > lossLimit*float64(st.sent) {
		o.failed += st.lost
		o.problems = append(o.problems, fmt.Sprintf("%s: %d of %d queries lost", name, st.lost, st.sent))
	}
}

// servePhases is what one authd instance measured.
type servePhases struct {
	sat    []*phaseStats
	lo, hi *phaseStats
	rss    float64
}

// drive runs the warm-up, the saturation passes (as many as fit in
// budget), and the fixed low and high rate phases against p.
func drive(ctx context.Context, o *outcome, e env, p *authdProc, budget time.Duration, minSat int) (*servePhases, error) {
	res := &servePhases{}
	start := time.Now()
	warm, err := openLoop(ctx, p, newLoadPlan(serveLoRate/2, e.seed, "w"), serveLoRate, e.cores)
	if err != nil {
		return nil, err
	}
	account(o, "warm-up", warm, fixedRateLossLimit)
	fixed := 2 * (servePhase + serveDrain)
	for i := 0; ; i++ {
		st, err := closedLoop(ctx, p, newLoadPlan(satQueries, e.seed+int64(i), "s"), satWindow, e.cores)
		if err != nil {
			return nil, err
		}
		account(o, "saturation", st, 0)
		fmt.Fprintf(os.Stderr, "saturation pass %d: %.3fs, authd cpu %.3fs, %d answered\n",
			len(res.sat), st.wall, st.cpu, st.answered)
		res.sat = append(res.sat, st)
		left := budget - time.Since(start) - fixed
		if len(res.sat) >= minSat && left < time.Duration(st.wall*float64(time.Second)) {
			break
		}
	}
	for _, ph := range []struct {
		name string
		rate float64
		out  **phaseStats
	}{{"lo", serveLoRate, &res.lo}, {"hi", serveHiRate, &res.hi}} {
		n := int(ph.rate * servePhase.Seconds())
		st, err := openLoop(ctx, p, newLoadPlan(n, e.seed, ph.name), ph.rate, e.cores)
		if err != nil {
			return nil, err
		}
		account(o, "rate "+ph.name, st, fixedRateLossLimit)
		fmt.Fprintf(os.Stderr, "rate %s: authd cpu %.1fus/query, p50 %.0fus p99 %.0fus, late p99 %.0fus, lost %d\n",
			ph.name, st.cpu/float64(st.sent)*1e6, quantile(st.latUs, 0.5), quantile(st.latUs, 0.99),
			quantile(st.lateUs, 0.99), st.lost)
		if late := quantile(st.lateUs, 0.99); late > serveLateLimitUs {
			o.fail("rate %s: generator p99 lateness %.0fus above %.0fus", ph.name, late, serveLateLimitUs)
		}
		*ph.out = st
	}
	res.rss = p.peakRSSMiB()
	return res, nil
}

// knee raises the offered rate from the high rate in 25% steps until a
// step loses more than serveLossLimit, misses the p99 limit, or shows
// a growing backlog; it returns the last rate that passed.
func knee(ctx context.Context, o *outcome, e env, p *authdProc) (float64, error) {
	best := 0.0
	for rate := float64(serveHiRate); rate < 400000; rate *= 1.25 {
		n := int(rate * 2)
		st, err := openLoop(ctx, p, newLoadPlan(n, e.seed, fmt.Sprintf("k%d", int(rate))), rate, e.cores)
		if err != nil {
			return 0, err
		}
		account(o, fmt.Sprintf("knee %.0f/s", rate), st, 1)
		loss := float64(st.lost) / float64(st.sent)
		q := len(st.latUs) / 4
		growing := len(st.latUs) > 8 &&
			quantile(st.latUs[3*q:], 0.5) > 2*quantile(st.latUs[:q], 0.5)+1000
		fmt.Fprintf(os.Stderr, "knee %.0f/s: loss %.4f p99 %.0fus late p99 %.0fus growing %v\n",
			rate, loss, quantile(st.latUs, 0.99), quantile(st.lateUs, 0.99), growing)
		if loss > serveLossLimit || quantile(st.latUs, 0.99) > serveP99LimitUs || growing {
			break
		}
		best = rate
	}
	return best, nil
}

// runServeAuth measures authd. Set-up is timed over serveSetups
// executions; the last instance then takes the load.
func runServeAuth(ctx context.Context, e env) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	if e.trace {
		return o, serveTraced(ctx, e, o)
	}
	start := time.Now()
	var setups []float64
	var p *authdProc
	defer func() { p.stop() }()
	for i := 0; i < serveSetups; i++ {
		p.stop()
		var err error
		var s float64
		p, s, err = startAuthd(ctx, e.authd, false, e.seed+int64(i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	budget := time.Duration(e.seconds*float64(time.Second)) - time.Since(start)
	ph, err := drive(ctx, o, e, p, budget, 2)
	if err != nil {
		return nil, err
	}
	var run, cpu, rate []float64
	for _, st := range ph.sat {
		run = append(run, st.wall)
		cpu = append(cpu, st.cpu)
		rate = append(rate, float64(st.answered)/st.wall)
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["run_s"] = median(run)
	o.metrics["cpu_s"] = median(cpu)
	o.metrics["records_per_s"] = median(rate)
	o.metrics["peak_rss_mib"] = ph.rss
	return o, nil
}

// serveTraced runs a plain saturation reference against an authd
// without metrics, then the full load with authd's /metrics endpoint
// on, the knee search, and the replay of the offered queries.
func serveTraced(ctx context.Context, e env, o *outcome) error {
	tr := newTracer("serve-auth", e.seed)
	root := tr.begin("workload:serve-auth", 0)
	rcv0 := udpRcvbufErrors()

	plainSpan := tr.begin("plain", root)
	plain, _, err := startAuthd(ctx, e.authd, false, e.seed)
	if err != nil {
		return err
	}
	ref, err := closedLoop(ctx, plain, newLoadPlan(satQueries, e.seed, "s"), satWindow, e.cores)
	plain.stop()
	if err != nil {
		return err
	}
	account(o, "saturation (plain)", ref, 0)
	tr.end(plainSpan)

	loadSpan := tr.begin("load", root)
	p, _, err := startAuthd(ctx, e.authd, true, e.seed)
	if err != nil {
		return err
	}
	defer p.stop()
	ph, err := drive(ctx, o, e, p, 0, 1)
	if err != nil {
		return err
	}
	tr.end(loadSpan)
	kneeSpan := tr.begin("knee", root)
	kneeRate, err := knee(ctx, o, e, p)
	if err != nil {
		return err
	}
	tr.end(kneeSpan)
	am, err := p.scrape(ctx)
	if err != nil {
		return err
	}

	m := o.metrics
	m["serve.qps_max"] = kneeRate
	m["serve.p50_us_lo"] = quantile(ph.lo.latUs, 0.5)
	m["serve.p99_us_lo"] = quantile(ph.lo.latUs, 0.99)
	m["serve.p50_us_hi"] = quantile(ph.hi.latUs, 0.5)
	m["serve.p99_us_hi"] = quantile(ph.hi.latUs, 0.99)
	m["serve.loss_frac_hi"] = float64(ph.hi.lost) / float64(ph.hi.sent)
	m["serve.cpu_us_per_query"] = ph.hi.cpu / float64(ph.hi.answered) * 1e6
	m["serve.server_busy_frac"] = ph.hi.cpu / (ph.hi.wall * float64(e.cores))
	m["bench.gen_late_us_p99"] = math.Max(quantile(ph.lo.lateUs, 0.99), quantile(ph.hi.lateUs, 0.99))
	m["kernel.udp_rcvbuf_errors"] = udpRcvbufErrors() - rcv0

	// Counts authd itself exports; the simulation and analysis layers
	// are absent from its registry when the serving path bypasses them.
	authQ := am["authserver_queries_total"]
	m["authserver.queries"] = authQ
	m["authserver.engine_us_p50"] = scrapedQuantile(am, "authserver_response_latency_us", 0.5)
	m["netsim.events"] = am["netsim_events_total"]
	m["netsim.packets_sent"] = am["netsim_packets_sent_total"]
	m["netsim.packets_dropped"] = am["netsim_packets_dropped_total"]
	m["resolver.client_queries"] = am["resolver_client_queries_total"]
	m["resolver.timeouts"] = am["resolver_timeouts_total"]
	m["lanewire.records"] = sumPrefix(am, "lane_records_total")
	m["analysis.agg_size"] = sumPrefix(am, "analysis_aggregator_peak_size")
	for _, k := range []string{
		"core.pool_busy_frac", "atlas.generate_s", "netsim.ns_per_event", "netsim.allocs_per_event",
		"resolver.upstream_per_client", "resolver.cache_hit_frac", "resolver.negcache_hit_frac",
		"resolver.handle_packet_ns", "resolver.handle_packet_allocs", "analysis.on_query_ns",
		"analysis.figures_s", "plot.render_s", "measure.lane_wall_s_max", "measure.lane_skew",
		"lanewire.encode_ns_per_record", "lanewire.decode_ns_per_record", "lanewire.bytes_per_record",
		"runtime.gc_cpu_frac", "runtime.allocs_per_record", "runtime.alloc_bytes_per_record",
		"runtime.heap_peak_mib",
	} {
		m[k] = 0
	}

	replaySpan := tr.begin("replay", root)
	plan := newLoadPlan(4096, e.seed, "hi")
	wc, err := replayWire(serveCombo, serveSite, plan.packets)
	if err != nil {
		return err
	}
	tr.end(replaySpan)
	m["authserver.append_query_ns"], m["authserver.append_query_allocs"] = wc.append.ns, wc.append.allocs
	m["dnswire.unpack_ns"], m["dnswire.unpack_allocs"] = wc.unpack.ns, wc.unpack.allocs
	m["dnswire.pack_ns"], m["dnswire.pack_allocs"] = wc.pack.ns, wc.pack.allocs
	m["dnswire.bytes_per_response"] = wc.respBytes

	// The share of authd's CPU over the whole load that the engine's
	// per-query cost does not explain (socket I/O, scheduling, GC).
	m["trace.unattributed_frac"] = 1 - authQ*wc.append.ns/1e9/p.cpuSeconds()
	m["trace.overhead_s"] = ph.sat[0].wall - ref.wall
	tr.end(root)
	return tr.write(e.outdir)
}

// scrapedQuantile merges the scraped buckets of every histogram named
// base (one per site) and interpolates quantile q.
func scrapedQuantile(am map[string]float64, base string, q float64) float64 {
	cum := map[float64]float64{}
	for k, v := range am {
		if !strings.HasPrefix(k, base+"_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		b := math.Inf(1)
		if le != "+Inf" {
			b, _ = strconv.ParseFloat(le, 64)
		}
		cum[b] += v
	}
	var bounds []float64
	for b := range cum {
		if !math.IsInf(b, 1) {
			bounds = append(bounds, b)
		}
	}
	sort.Float64s(bounds)
	counts := make([]int64, len(bounds)+1)
	prev := 0.0
	for i, b := range bounds {
		counts[i] = int64(cum[b] - prev)
		prev = cum[b]
	}
	counts[len(bounds)] = int64(cum[math.Inf(1)] - prev)
	return histQuantile(bounds, counts, q)
}

func sumPrefix(am map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range am {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// udpRcvbufErrors reads the host's UDP receive-buffer overflow count.
func udpRcvbufErrors() float64 {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0
	}
	var header []string
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "Udp: ") {
			continue
		}
		f := strings.Fields(line)
		if header == nil {
			header = f
			continue
		}
		for i, h := range header {
			if h == "RcvbufErrors" && i < len(f) {
				v, _ := strconv.ParseFloat(f[i], 64)
				return v
			}
		}
	}
	return 0
}
