package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"twolm/internal/jobspec"
	"twolm/internal/sweep"
)

const (
	// simdSetupReps is how many times the server is started (exec until
	// /healthz answers 200) per run; the last start serves the traffic.
	simdSetupReps = 41
	// pollEvery is the result poller's cadence and statsEvery how often
	// it samples /v1/stats for the queue depth.
	pollEvery  = 250 * time.Microsecond
	statsEvery = 25 * time.Millisecond
	// abortDepth stops a step's submissions once the admission queue
	// holds this many jobs, well below the server's 1024 limit, so an
	// overloaded step ends as unsustained instead of drawing 429s.
	abortDepth = 256
	// drainWait bounds how long a step waits for its last results.
	drainWait = 20 * time.Second
)

// simdKind is one job body shape, all CSV-only single points.
type simdKind struct {
	name string
	body func(seed uint32) string
}

// simdKinds are the rotated job bodies: random 256 KiB ratio 4 (the
// chunked scatter path), sequential 1 MiB (the set-stride fold), and
// random 128 KiB 4-way no-write-allocate (the serial ablation path).
var simdKinds = []simdKind{
	{"random", func(seed uint32) string {
		return fmt.Sprintf(`{"version":1,"name":"random","geometry":{"cache_kib":256},"workload":{"pattern":"random","ratio":4,"seed":%d},"telemetry":{"formats":["csv"]}}`, seed)
	}},
	{"sequential", func(uint32) string {
		return `{"version":1,"name":"sequential","geometry":{"cache_kib":1024},"workload":{"pattern":"sequential"},"telemetry":{"formats":["csv"]}}`
	}},
	{"assoc", func(seed uint32) string {
		return fmt.Sprintf(`{"version":1,"name":"assoc","geometry":{"cache_kib":128,"ways":4},"policy":"no-write-allocate","workload":{"pattern":"random","seed":%d},"telemetry":{"formats":["csv"]}}`, seed)
	}},
}

// simdBody is one generated job body with its expected result bytes.
type simdBody struct {
	kind int
	body []byte
	want []byte
}

// bodiesPerKind is how many seeded bodies of each kind the rotation
// holds; several per kind keep the mix's cost from hinging on one
// random seed.
const bodiesPerKind = 8

// simdBodies generates the rotated body set from the seed and computes
// each expected result in process.
func simdBodies(seed uint64) ([]simdBody, error) {
	pool := sweep.NewArena()
	var out []simdBody
	for i := 0; i < bodiesPerKind*len(simdKinds); i++ {
		k := i % len(simdKinds)
		body := []byte(simdKinds[k].body(derive(seed, saltSimdBodies*100+uint64(i))))
		want, err := runBody(body, pool)
		if err != nil {
			return nil, fmt.Errorf("body %d: %w", i, err)
		}
		out = append(out, simdBody{kind: k, body: body, want: want})
	}
	return out, nil
}

// runBody decodes a body and executes it in process, as simd would.
func runBody(body []byte, pool *sweep.Arena) ([]byte, error) {
	spec, err := jobspec.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	res, err := sweep.RunJob(context.Background(), *spec, 1, pool)
	if err != nil {
		return nil, err
	}
	return res.CSV, nil
}

// simdServer is one running cmd/simd process.
type simdServer struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// freeAddr picks an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// newClient returns a client that keeps one connection to the server.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// startServer execs the prebuilt daemon with its defaults on a loopback
// port and waits until /healthz answers 200. It returns the set-up time.
func startServer(bin string, c *http.Client) (*simdServer, float64, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// If the benchmark dies without draining the server, the kernel
	// kills the server too: no simd process outlives a run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &simdServer{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, secondsSince(t), nil
			}
		}
		select {
		case err := <-s.done:
			return nil, 0, fmt.Errorf("simd exited before becoming healthy: %v", err)
		case <-time.After(100 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("simd did not become healthy within 10s")
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain hangs.
func (s *simdServer) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("simd did not drain within 15s; killed")
	}
}

func (s *simdServer) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// cpuMS is the server's user+system CPU time in milliseconds, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func (s *simdServer) cpuMS() (float64, error) {
	data, err := os.ReadFile("/proc/" + s.pid() + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14 and stime 15.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", rest)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) * 10, nil
}

// generator is the open-loop traffic source: one connection submits on
// the seeded schedule, the other polls results at a fixed cadence and
// samples the queue depth.
type generator struct {
	base   string
	submit *http.Client
	poll   *http.Client
	bodies []simdBody
	rng    *rand.Rand
	tr     *tracer // nil for the untraced run
	next   int     // body rotation and span operation id
}

// stepStats is everything one ladder step measured.
type stepStats struct {
	stepResult
	latMS    []float64
	sentMS   []float64 // latency timed from the actual send
	submitMS []float64
	fetchMS  []float64
	lateMax  float64
	polls    int
	fetched  int
	sent     int
	rejected int
	problems []string
}

// pending is a submitted job awaiting its result.
type pending struct {
	id   string
	due  time.Time
	late float64 // how late it was sent, in ms
	body int
	op   int
}

// runStep offers rate jobs/s for d, then waits for every result.
func (g *generator) runStep(rate float64, d time.Duration) stepStats {
	st := stepStats{stepResult: stepResult{rate: rate}}
	var depth atomic.Int64
	// Sized to twice the step's expected arrivals so the submitter
	// never waits on the poller; a fuller queue only delays a send.
	queue := make(chan pending, int(rate*d.Seconds())*2+16)
	var mu sync.Mutex // guards st fields the poller writes
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.pollLoop(queue, &depth, &st, &mu)
	}()

	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= d {
			break
		}
		if depth.Load() > abortDepth {
			st.aborted = true
			break
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late := time.Since(due).Seconds() * 1e3
		b := g.next % len(g.bodies)
		op := g.next + 1
		g.next++
		id, ms, err := g.submitOne(g.bodies[b].body, op)
		mu.Lock()
		st.sent++
		st.lateMax = max(st.lateMax, late)
		st.submitMS = append(st.submitMS, ms)
		if err != nil {
			st.failed++
			st.problems = append(st.problems, err.Error())
			if errors.Is(err, errRejected) {
				st.rejected++
			}
		}
		mu.Unlock()
		if err == nil {
			queue <- pending{id: id, due: due, late: late, body: b, op: op}
		}
	}
	close(queue)
	wg.Wait()
	return st
}

var errRejected = errors.New("submission rejected with 429")

// newRand is the send schedule's random source for a workload seed.
func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(derive(seed, saltSimdSchedule))))
}

// submitOne POSTs one body and returns the job id.
func (g *generator) submitOne(body []byte, op int) (string, float64, error) {
	id := g.tr.begin("simd.submit", 0, op)
	t := time.Now()
	resp, err := g.submit.Post(g.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ms := secondsSince(t) * 1e3
	g.tr.end(id)
	switch {
	case err != nil:
		return "", ms, fmt.Errorf("submit: %w", err)
	case resp.StatusCode == http.StatusTooManyRequests:
		return "", ms, errRejected
	case resp.StatusCode != http.StatusAccepted:
		return "", ms, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, data)
	}
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &r); err != nil || r.ID == "" {
		return "", ms, fmt.Errorf("submit: bad response %q", data)
	}
	return r.ID, ms, nil
}

// get fetches a path on the poll connection.
func (g *generator) get(path string) (int, []byte, error) {
	resp, err := g.poll.Get(g.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// pollLoop collects results in submission order until the submitter has
// finished and every job is fetched, or drainWait passes.
func (g *generator) pollLoop(queue <-chan pending, depth *atomic.Int64, st *stepStats, mu *sync.Mutex) {
	var fifo []pending
	open := true
	var lastStats time.Time
	var giveUp time.Time
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	record := func(f func()) { mu.Lock(); f(); mu.Unlock() }
	for open || len(fifo) > 0 {
		<-tick.C
	drainQueue:
		for open {
			select {
			case p, ok := <-queue:
				if !ok {
					open = false
					giveUp = time.Now().Add(drainWait)
					break drainQueue
				}
				fifo = append(fifo, p)
			default:
				break drainQueue
			}
		}
		if time.Since(lastStats) >= statsEvery {
			lastStats = time.Now()
			if code, data, err := g.get("/v1/stats"); err == nil && code == http.StatusOK {
				var s struct {
					QueueDepth int64 `json:"queue_depth"`
				}
				if json.Unmarshal(data, &s) == nil {
					depth.Store(s.QueueDepth)
					record(func() { st.depths = append(st.depths, float64(s.QueueDepth)) })
				}
			}
		}
		for len(fifo) > 0 {
			p := fifo[0]
			done, err := g.pollOne(p, st, mu)
			if err != nil {
				record(func() { st.failed++; st.problems = append(st.problems, err.Error()) })
				fifo = fifo[1:]
				continue
			}
			if !done {
				break
			}
			fifo = fifo[1:]
		}
		if !open && len(fifo) > 0 && time.Now().After(giveUp) {
			record(func() {
				st.failed += len(fifo)
				st.problems = append(st.problems, fmt.Sprintf("%d results not ready within %s", len(fifo), drainWait))
			})
			return
		}
	}
}

// pollOne checks one job's status and, once it is done, fetches and
// verifies its result. It reports whether the job is finished with.
func (g *generator) pollOne(p pending, st *stepStats, mu *sync.Mutex) (bool, error) {
	id := g.tr.begin("simd.poll", 0, p.op)
	code, data, err := g.get("/v1/jobs/" + p.id)
	g.tr.end(id)
	mu.Lock()
	st.polls++
	mu.Unlock()
	if err != nil {
		return false, err
	}
	if code != http.StatusOK {
		return false, fmt.Errorf("status %s: HTTP %d", p.id, code)
	}
	var s struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return false, fmt.Errorf("status %s: %w", p.id, err)
	}
	switch s.Status {
	case "queued", "running":
		return false, nil
	case "done":
	default:
		return false, fmt.Errorf("job %s ended %s: %s", p.id, s.Status, s.Error)
	}
	id = g.tr.begin("simd.fetch", 0, p.op)
	t := time.Now()
	code, data, err = g.get("/v1/jobs/" + p.id + "/result")
	fetchMS := secondsSince(t) * 1e3
	g.tr.end(id)
	lat := time.Since(p.due).Seconds() * 1e3
	if err != nil {
		return false, err
	}
	if code != http.StatusOK {
		return false, fmt.Errorf("result %s: HTTP %d", p.id, code)
	}
	if !bytes.Equal(data, g.bodies[p.body].want) {
		return false, fmt.Errorf("result %s differs from the in-process sweep.RunJob of its body", p.id)
	}
	mu.Lock()
	st.fetched++
	st.latMS = append(st.latMS, lat)
	st.sentMS = append(st.sentMS, lat-p.late)
	st.fetchMS = append(st.fetchMS, fetchMS)
	mu.Unlock()
	return true, nil
}

// warm submits every body once, closed loop, so the server's rig arena
// holds each geometry before timing starts.
func (g *generator) warm(rep *report) error {
	var st stepStats
	var mu sync.Mutex
	for i, b := range g.bodies {
		rep.attempted++
		id, _, err := g.submitOne(b.body, 0)
		if err != nil {
			rep.fail("warm-up: %v", err)
			continue
		}
		p := pending{id: id, due: time.Now(), body: i}
		deadline := time.Now().Add(drainWait)
		for {
			done, err := g.pollOne(p, &st, &mu)
			if err != nil {
				rep.fail("warm-up: %v", err)
				break
			}
			if done {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("warm-up job %s not done within %s", id, drainWait)
			}
			time.Sleep(pollEvery)
		}
	}
	return nil
}

// ladder is one pass up the rate ladder.
type ladder struct {
	steps []stepStats // in the order they ran
	cpuMS float64
	jobs  int
}

// ladderPlan is the order the steps run in. The reference rate runs as
// ten sub-steps spread across the pass, none right after the overload
// step, so its end-to-end figure can be taken from the least disturbed
// one.
var ladderPlan = []float64{
	refRate, refRate, 200, refRate, refRate, refRate,
	800, refRate, refRate, refRate, refRate, 1600,
}

// stepDuration gives each reference sub-step 3% of the run and every
// other step 15%; together the sub-steps have the samples for a p99.
func stepDuration(rate, seconds float64) time.Duration {
	share := 0.15
	if rate == refRate {
		share = 0.03
	}
	return time.Duration(share * seconds * float64(time.Second))
}

// runLadder runs the whole plan. Every step runs even after one misses
// the limit, so each run offers the server the same amount of work and
// its memory figures compare across runs.
func (g *generator) runLadder(s *simdServer, seconds float64) (*ladder, error) {
	l := &ladder{}
	cpu0, err := s.cpuMS()
	if err != nil {
		return nil, err
	}
	for _, rate := range ladderPlan {
		st := g.runStep(rate, stepDuration(rate, seconds))
		l.steps = append(l.steps, st)
		l.jobs += st.sent
	}
	cpu1, err := s.cpuMS()
	if err != nil {
		return nil, err
	}
	l.cpuMS = cpu1 - cpu0
	return l, nil
}

// byRate merges the steps of each ladder rate: latencies pooled for
// their tails, failures summed, and a backlog that grew in any sub-step
// kept.
func (l *ladder) byRate() []stepResult {
	out := make([]stepResult, len(ladderRates))
	for i, rate := range ladderRates {
		var lat, sent []float64
		r := stepResult{rate: rate}
		for _, st := range l.steps {
			if st.rate != rate {
				continue
			}
			lat = append(lat, st.latMS...)
			sent = append(sent, st.sentMS...)
			r.failed += st.failed
			r.aborted = r.aborted || st.aborted
			r.grew = r.grew || growing(st.depths)
		}
		r.tailLevel, r.tailMS, _ = tail(lat)
		_, r.sentTailMS, _ = tail(sent)
		out[i] = r
	}
	return out
}

// refLatencies returns the reference rate's pooled latencies and the
// smallest median among its sub-steps.
func (l *ladder) refLatencies() (all []float64, bestP50 float64) {
	for _, st := range l.steps {
		if st.rate != refRate {
			continue
		}
		all = append(all, st.latMS...)
		if m := median(st.latMS); bestP50 == 0 || m < bestP50 {
			bestP50 = m
		}
	}
	return all, bestP50
}

// account adds a ladder's operations and failures to the report.
func (l *ladder) account(rep *report) {
	for _, st := range l.steps {
		rep.attempted += st.sent
		rep.failed += st.failed
		rep.problems = append(rep.problems, st.problems...)
	}
}

// note prints every step's and every rate's latency figures.
func (l *ladder) note(rep *report) {
	for i, st := range l.steps {
		p := fmt.Sprintf("step %d (%g/s) ", i+1, st.rate)
		rep.note(p+"p50_ms", median(st.latMS), "ms")
		rep.note(p+"late_ms.max", st.lateMax, "ms")
		rep.note(p+"queue_depth.max", maxOf(st.depths), "count")
		if st.aborted {
			rep.note(p+"aborted on backlog", 1, "count")
		}
	}
	for _, r := range l.byRate() {
		if r.tailLevel > 0 {
			rep.note(fmt.Sprintf("rate %g/s p%g_ms", r.rate, r.tailLevel), r.tailMS, "ms")
		}
		if r.generatorBound() {
			rep.note(fmt.Sprintf("rate %g/s generator-bound: tail from send, ms", r.rate), r.sentTailMS, "ms")
		}
	}
	all, best := l.refLatencies()
	rep.note(fmt.Sprintf("p50_ms (reference rate, n=%d)", len(all)), median(all), "ms")
	rep.note("p50_ms (reference rate, best sub-step)", best, "ms")
	if level, v, ok := tail(all); ok {
		rep.note(fmt.Sprintf("p%g_ms (reference rate)", level), v, "ms")
	}
	rep.note("max_rate_per_s", maxSustained(l.byRate()), "1/s")
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// runSimd is the simd-open workload: open-loop traffic of small
// single-point jobs against the built cmd/simd binary.
func runSimd(o options) (rep *report, err error) {
	if o.simd == "" {
		return nil, errors.New("simd-open needs -simd <path to the cmd/simd binary>")
	}
	rep = newReport()
	bodies, err := simdBodies(o.seed)
	if err != nil {
		return nil, err
	}

	poll := newClient()
	// Collect the in-process reference runs' garbage first, so no
	// background collection competes with the server starts.
	runtime.GC()
	var setups []float64
	var srv *simdServer
	for i := 0; i < simdSetupReps; i++ {
		s, t, err := startServer(o.simd, poll)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
		if i < simdSetupReps-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	defer func() {
		if serr := srv.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stopping simd: %w", serr)
		}
	}()
	rep.values["setup_s"] = best(setups)
	noteTiming(rep, "setup_s (exec until /healthz 200)", setups, "s", 1)

	g := &generator{
		base:   srv.base,
		submit: newClient(),
		poll:   poll,
		bodies: bodies,
		rng:    newRand(o.seed),
	}
	if err := g.warm(rep); err != nil {
		return nil, err
	}
	rss0, err := procStatusMiB(srv.pid(), "VmRSS:")
	if err != nil {
		return nil, err
	}

	if o.trace {
		return rep, traceSimd(o, rep, g, srv, rss0)
	}
	l, err := g.runLadder(srv, o.seconds)
	if err != nil {
		return nil, err
	}
	l.account(rep)
	rss, err := peakRSSMiB(srv.pid())
	if err != nil {
		return nil, err
	}
	_, best := l.refLatencies()
	rep.values["wall_s"] = best / 1e3
	rep.values["peak_rss_mib"] = rss
	rep.note("wall_s (submit-to-result median, best reference sub-step)", rep.values["wall_s"], "s")
	l.note(rep)
	rep.note("peak_rss_mib (server VmHWM)", rss, "MiB")
	return rep, nil
}

// traceSimd is the traced simd-open run: the job path in process
// (jobspec decode, sweep.RunJob per body kind on one shared arena), an
// untraced ladder for the overhead base and the rate figures, and a
// ladder with spans around every submit, poll and fetch.
func traceSimd(o options, rep *report, g *generator, srv *simdServer, rss0 float64) error {
	tr := newTracer()
	const decodeReps, runReps = 200, 20
	pool := sweep.NewArena()
	perKind := make(map[string][]float64)
	for i := 0; i < decodeReps; i++ {
		for _, b := range g.bodies {
			id := tr.begin("jobspec.decode", 0, 0)
			_, err := jobspec.Decode(bytes.NewReader(b.body))
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	for i := 0; i < runReps; i++ {
		for _, b := range g.bodies {
			t := time.Now()
			got, err := runBody(b.body, pool)
			perKind[simdKinds[b.kind].name] = append(perKind[simdKinds[b.kind].name], secondsSince(t)*1e6)
			rep.attempted++
			if err != nil {
				return err
			}
			if !bytes.Equal(got, b.want) {
				rep.fail("in-process %s job differs between runs", simdKinds[b.kind].name)
			}
		}
	}

	untraced, err := g.runLadder(srv, o.seconds)
	if err != nil {
		return err
	}
	untraced.account(rep)
	g.tr = tr
	traced, err := g.runLadder(srv, o.seconds)
	g.tr = nil
	if err != nil {
		return err
	}
	traced.account(rep)
	rss1, err := procStatusMiB(srv.pid(), "VmRSS:")
	if err != nil {
		return err
	}

	self := tr.selfTimes()
	rep.values["jobspec.decode.us"] = self["jobspec.decode"] * 1e6 / float64(decodeReps*len(g.bodies))
	for _, k := range simdKinds {
		rep.values["sweep.runjob."+k.name+".us"] = median(perKind[k.name])
	}
	var submitMS, fetchMS []float64
	var polls, fetched, sent, rejected int
	var depthMax, lateMax float64
	for _, st := range traced.steps {
		submitMS = append(submitMS, st.submitMS...)
		fetchMS = append(fetchMS, st.fetchMS...)
		polls += st.polls
		fetched += st.fetched
		sent += st.sent
		rejected += st.rejected
		depthMax = max(depthMax, maxOf(st.depths))
		lateMax = max(lateMax, st.lateMax)
	}
	rep.values["simd.submit.ms"] = median(submitMS)
	rep.values["simd.fetch.ms"] = median(fetchMS)
	rep.values["simd.polls_per_job"] = float64(polls) / float64(max(fetched, 1))
	refAll, wallU := untraced.refLatencies()
	_, refTail, _ := tail(refAll)
	rep.values["simd.p99_ms"] = refTail
	rep.values["simd.max_rate_per_s"] = maxSustained(untraced.byRate())
	rep.values["simd.rejected_frac"] = float64(rejected) / float64(max(sent, 1))
	rep.values["simd.queue_depth.max"] = depthMax
	rep.values["simd.server_cpu_ms_per_job"] = (untraced.cpuMS + traced.cpuMS) / float64(untraced.jobs+traced.jobs)
	rep.values["simd.rss_mib_per_kjob"] = (rss1 - rss0) / (float64(untraced.jobs+traced.jobs) / 1000)
	rep.values["gen.late_ms.max"] = lateMax
	_, wallT := traced.refLatencies()
	rep.values["trace.overhead_frac"] = (wallT - wallU) / wallU
	rep.note("reference p50_ms untraced", wallU, "ms")
	rep.note("reference p50_ms traced", wallT, "ms")
	untraced.note(rep)
	noteLayers(rep, self)
	return tr.write(o.spanDir, "simd-open")
}
