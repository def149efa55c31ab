package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/trace"
)

// The serve-stream traffic: an open loop from one client on a fixed
// schedule that repeats every cycle: flushEvery ingests of streamBatch rows
// ingestGap apart, then a flush flushDelay after the last of them, then a
// poll of the session status. That is 2,000 rows/s and a 480-row delta
// flushed every 240 ms. Every ingest costs the session a pass over the
// whole relation, so rows come in few, large ingests; on a 2-core VM a
// cycle keeps the session busy for well under half of its 240 ms, and the
// idle rest of the cycle keeps the next cycle's ingests from landing on a
// running flush. With two ingests per cycle the ingest tail percentile
// stays below the share of requests that meet a stall of the machine.
const (
	preloadRows  = 50_000
	preloadBatch = 5_000
	streamBatch  = 240
	flushEvery   = 2
	cycle        = 240 * time.Millisecond
	ingestGap    = 60 * time.Millisecond
	flushDelay   = 30 * time.Millisecond
	pollDelay    = 200 * time.Millisecond
	queueDepth   = 64
	sessionPath  = "/sessions/bench"
	// streamSetupReps is how often a run starts and preloads a server;
	// setup_s is the median.
	streamSetupReps = 3
)

var createBody = []byte(`{"schema":"name,zipcode:int,city,state,salary:float,rate:float",` +
	`"rules":[{"id":"phi1","kind":"fd","spec":"zipcode -> city"}]}`)

// server is one `bigdansing serve` child process and an HTTP client for it
// that opens at most two connections.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	out    bytes.Buffer // stdout after the listening line
	copied chan struct{}
	exited bool
}

func startServer(bin, dir string) (*server, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(parallelism),
		"-queue", strconv.Itoa(queueDepth), "-quiet")
	cmd.Dir = dir
	// The server must not outlive the benchmark, even when the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting bigdansing serve: %w", err)
	}
	s := &server{cmd: cmd, copied: make(chan struct{})}
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	const prefix = "listening on "
	i := strings.Index(line, prefix)
	if err != nil || i < 0 {
		s.kill()
		return nil, fmt.Errorf("bigdansing serve did not report its address (%q): %v", line, err)
	}
	s.base = strings.TrimSpace(line[i+len(prefix):])
	go func() {
		io.Copy(&s.out, rd)
		close(s.copied)
	}()
	s.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
	}
	return s, nil
}

func (s *server) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// expect runs a request and turns an unexpected status into an error.
func (s *server) expect(method, path string, body []byte, want int) ([]byte, error) {
	code, b, err := s.do(method, path, body)
	if err == nil && code != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(b))
	}
	return b, err
}

// terminate sends SIGTERM, which makes the server drain every session and
// run a final flush, and waits for it to exit.
func (s *server) terminate(timeout time.Duration) error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		s.exited = true
		<-s.copied
		if err != nil {
			return fmt.Errorf("bigdansing serve exited: %w", err)
		}
		if !strings.Contains(s.out.String(), "drained") {
			return errors.New("bigdansing serve exited without reporting its drain")
		}
		return nil
	case <-time.After(timeout):
		s.cmd.Process.Kill()
		<-done
		s.exited = true
		return fmt.Errorf("bigdansing serve did not exit within %v of SIGTERM", timeout)
	}
}

// kill stops the server if it is still running and waits for it.
func (s *server) kill() {
	if s.exited {
		return
	}
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.exited = true
}

type flushReport struct {
	InitialViolations   int   `json:"initialViolations"`
	RemainingViolations int   `json:"remainingViolations"`
	Tuples              int   `json:"tuples"`
	DetectMillis        int64 `json:"detectMillis"`
	RepairMillis        int64 `json:"repairMillis"`
}

func encodeBatch(ts []model.Tuple) []byte {
	rows := make([][]string, len(ts))
	for i, t := range ts {
		row := make([]string, len(t.Cells))
		for c, v := range t.Cells {
			row[c] = v.String()
		}
		rows[i] = row
	}
	b, err := json.Marshal(map[string]any{"tuples": rows})
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a batch: %v", err))
	}
	return b
}

// chunks splits ts into consecutive batches of size n.
func chunks(ts []model.Tuple, n int) [][]model.Tuple {
	var out [][]model.Tuple
	for len(ts) > 0 {
		k := min(n, len(ts))
		out = append(out, ts[:k])
		ts = ts[k:]
	}
	return out
}

// preload starts a server, opens the session and loads the preload rows
// with one flush: the serve-stream set-up.
func preload(r *run, tr *datagen.Truth) (*server, flushReport, error) {
	srv, err := startServer(r.bin, r.work)
	if err != nil {
		return nil, flushReport{}, err
	}
	fail := func(err error) (*server, flushReport, error) {
		srv.kill()
		return nil, flushReport{}, err
	}
	if _, err := srv.expect("POST", sessionPath, createBody, http.StatusCreated); err != nil {
		return fail(err)
	}
	for _, b := range chunks(tr.Dirty.Tuples[:preloadRows], preloadBatch) {
		if _, err := srv.expect("POST", sessionPath+"/ingest", encodeBatch(b), http.StatusAccepted); err != nil {
			return fail(err)
		}
	}
	body, err := srv.expect("POST", sessionPath+"/flush", nil, http.StatusOK)
	if err != nil {
		return fail(err)
	}
	var rep flushReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return fail(fmt.Errorf("flush report: %w", err))
	}
	return srv, rep, nil
}

type sample struct {
	lat, late time.Duration
	rep       flushReport
	err       error
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func runStream(r *run) {
	nFlush := max(int(r.seconds*float64(time.Second)/float64(cycle)), 1)
	nIngest := nFlush * flushEvery
	rows := preloadRows + nIngest*streamBatch
	r.info["rows"] = rows
	r.info["stream"] = fmt.Sprintf("open loop, 1 client, every %v: %d ingests of %d rows %v apart, a flush %v after the last",
		cycle, flushEvery, streamBatch, ingestGap, flushDelay)

	var (
		tr     *datagen.Truth
		srv    *server
		preRep flushReport
		setups []float64
	)
	for i := 0; i < streamSetupReps; i++ {
		if srv != nil {
			srv.kill()
		}
		runtime.GC()
		t0 := time.Now()
		tr = datagen.TaxA(rows, 0.10, r.seed)
		var err error
		srv, preRep, err = preload(r, tr)
		setups = append(setups, time.Since(t0).Seconds())
		r.op(err, "serve set-up")
		if err != nil {
			return
		}
	}
	defer srv.kill()
	r.values["setup_s"] = median(setups)
	oracle := fdViolations(prefixTruth(tr, preloadRows).Dirty, 1, 2)
	r.check("preload flush violations = oracle", preRep.InitialViolations == oracle, "%d violations, oracle %d", preRep.InitialViolations, oracle)

	bodies := make([][]byte, nIngest)
	for i, b := range chunks(tr.Dirty.Tuples[preloadRows:], streamBatch) {
		bodies[i] = encodeBatch(b)
	}

	ingests := make([]sample, nIngest)
	flushes := make([]sample, nFlush)
	queueMax := 0
	runtime.GC()
	steal0 := stealSeconds()
	t0 := time.Now().Add(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range ingests {
			due := t0.Add(time.Duration(i/flushEvery)*cycle + time.Duration(i%flushEvery)*ingestGap)
			sleepUntil(due)
			sent := time.Now()
			_, err := srv.expect("POST", sessionPath+"/ingest", bodies[i], http.StatusAccepted)
			ingests[i] = sample{lat: time.Since(due), late: sent.Sub(due), err: err}
		}
	}()
	// Flushes and queue polls share the second connection.
	for j := range flushes {
		due := t0.Add(time.Duration(j)*cycle + (flushEvery-1)*ingestGap + flushDelay)
		sleepUntil(due)
		sent := time.Now()
		body, err := srv.expect("POST", sessionPath+"/flush", nil, http.StatusOK)
		s := sample{lat: time.Since(due), late: sent.Sub(due), err: err}
		if err == nil {
			s.err = json.Unmarshal(body, &s.rep)
		}
		flushes[j] = s
		if j == len(flushes)-1 {
			break
		}
		sleepUntil(t0.Add(time.Duration(j)*cycle + pollDelay))
		var st struct {
			Queued int `json:"queued"`
		}
		if b, err := srv.expect("GET", sessionPath, nil, http.StatusOK); err == nil && json.Unmarshal(b, &st) == nil {
			queueMax = max(queueMax, st.Queued)
		}
	}
	end := time.Now()
	<-done
	r.info["cpu_steal_s"] = stealSeconds() - steal0

	var ingestMs, flushMs []float64
	var lateMax time.Duration
	rejected := 0
	for _, s := range ingests {
		r.op(s.err, "ingest")
		if s.err != nil && strings.Contains(s.err.Error(), "status 429") {
			rejected++
		}
		ingestMs = append(ingestMs, ms(s.lat))
		lateMax = max(lateMax, s.late)
	}
	var detectSum, repairSum float64
	remaining := 0
	for _, s := range flushes {
		r.op(s.err, "flush")
		flushMs = append(flushMs, ms(s.lat))
		lateMax = max(lateMax, s.late)
		detectSum += float64(s.rep.DetectMillis)
		repairSum += float64(s.rep.RepairMillis)
		remaining += s.rep.RemainingViolations
	}
	r.check("every flush ends with 0 violations", remaining == 0, "%d violations left across flushes", remaining)
	if rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid)); err == nil {
		r.values["peak_rss_mb"] = rss
	}

	makespan := end.Sub(t0).Seconds()
	last := flushes[nFlush-1].rep
	r.values["stream_rows_per_s"] = float64(last.Tuples-preRep.Tuples) / makespan
	r.values["ingest_p50_ms"] = median(ingestMs)
	// The flush latencies and the ingest tail are recorded, not gated: on
	// a shared 2-core VM they move with the hypervisor's CPU steal by more
	// than any bound allows.
	fv, fpct, fn := tail(flushMs)
	iv, ipct, in := tail(ingestMs)
	r.info["makespan_s"] = makespan
	r.info["flush_p50_ms"], r.info["flush_tail_ms"] = median(flushMs), fv
	r.info["flush_tail_percentile"], r.info["flush_samples"] = fpct, fn
	r.info["ingest_tail_ms"] = iv
	r.info["ingest_tail_percentile"], r.info["ingest_samples"] = ipct, in
	r.info["flush_ms_p50_p75_p90_p99_max"] = quantiles(flushMs, 0.5, 0.75, 0.9, 0.99, 1)
	r.info["ingest_ms_p50_p75_p90_p99_max"] = quantiles(ingestMs, 0.5, 0.75, 0.9, 0.99, 1)
	r.info["preload_violations"] = preRep.InitialViolations

	meanFlush := 0.0
	for _, v := range flushMs {
		meanFlush += v / float64(nFlush)
	}
	r.values["serve.flush_detect_ms"] = detectSum / float64(nFlush)
	r.values["serve.flush_repair_ms"] = repairSum / float64(nFlush)
	r.values["serve.queue_max"] = float64(queueMax)
	r.values["serve.rejected"] = float64(rejected)
	r.values["serve.generator_late_ms"] = ms(lateMax)

	checkServed(r, srv, tr, preRep.Tuples+nIngest*streamBatch)
	r.op(srv.terminate(60*time.Second), "SIGTERM drain")

	replayStream(r, tr, nFlush, meanFlush)
}

// checkServed fetches the session's relation and checks it: every row
// arrived, it re-detects to 0 violations, and its repairs are scored.
func checkServed(r *run, srv *server, tr *datagen.Truth, wantRows int) {
	body, err := srv.expect("GET", sessionPath+"/relation", nil, http.StatusOK)
	r.op(err, "GET relation")
	if err != nil {
		return
	}
	rel, err := model.ReadCSV(bytes.NewReader(body), "served", datagen.TaxSchema(), true, 0)
	r.op(err, "parse relation")
	if err != nil {
		return
	}
	r.check("served relation holds every row", rel.Len() == wantRows, "%d rows, want %d", rel.Len(), wantRows)
	ctx := engine.NewWithConfig(engine.Config{Parallelism: parallelism})
	res, err := core.DetectRules(ctx, []*core.Rule{phi1()}, rel)
	r.op(err, "re-detect served relation")
	if err == nil {
		left := fdViolations(rel, 1, 2)
		r.check("served relation re-detects to 0", len(res.Violations) == 0 && left == 0,
			"DetectRules finds %d, oracle %d", len(res.Violations), left)
	}
	q := datagen.Evaluate(prefixTruth(tr, rel.Len()), rel)
	r.values["repair_precision"], r.values["repair_recall"] = q.Precision, q.Recall
}

// replayStream sends the same stream through an in-process
// cleanse.Session configured as serve configures its sessions (its own
// trace.Tracer included), as fast as it can. The untraced replay gives the
// time the session needs for the stream, the allocations per flush cycle
// and the heap growth per flush; with --trace 1 a second replay with the
// benchmark's recorder gives the per-layer split.
func replayStream(r *run, tr *datagen.Truth, cycles int, httpFlushMs float64) {
	plain, err := replay(r, tr, cycles, nil)
	r.op(err, "in-process replay")
	if err != nil {
		return
	}
	r.values["wall_s"] = plain.wall.Seconds()
	r.values["alloc_mb"] = median(plain.allocs)
	r.values["mallocs_k"] = median(plain.mallocs)
	r.values["serve.heap_growth_kb_per_flush"] = plain.heapGrowthKB
	// The flush report's detect time also holds the detection its ingests
	// ran, so the rest of a flush is measured against the session's own
	// Flush call: HTTP, JSON and queue wait.
	r.values["serve.flush_other_ms"] = httpFlushMs - ms(plain.flushWall)/float64(cycles)
	if !r.trace {
		return
	}
	rec := newRecorder()
	traced, err := replay(r, tr, cycles, rec)
	r.op(err, "traced in-process replay")
	if err != nil {
		return
	}
	var sum layerSum
	sum.add(traced.layers, cycles)
	sum.store(r)
	r.values["trace_overhead_ratio"] = traced.wall.Seconds() / plain.wall.Seconds()
	r.info["traced_replay_stream_s"] = traced.wall.Seconds()
	r.info["core.pairs"] = r.values["core.pairs"]
}

type replayResult struct {
	wall, flushWall time.Duration
	allocs, mallocs []float64
	heapGrowthKB    float64
	layers          map[string]float64
}

func replay(r *run, tr *datagen.Truth, cycles int, rec *recorder) (replayResult, error) {
	var out replayResult
	var obs engine.Observer = trace.New()
	if rec != nil {
		obs = engine.Tee(obs, rec)
	}
	cl, err := cleanse.NewCleaner(nil, []*core.Rule{phi1()},
		cleanse.WithObserver(obs), cleanse.WithEngineConfig(engine.Config{Parallelism: parallelism}))
	if err != nil {
		return out, err
	}
	sess, err := cl.Open(datagen.TaxSchema())
	if err != nil {
		return out, err
	}
	defer sess.Close()
	// Session-assigned IDs, as serve sends every tuple.
	fresh := func(ts []model.Tuple) []model.Tuple {
		b := append([]model.Tuple(nil), ts...)
		for i := range b {
			b[i].ID = -1
		}
		return b
	}
	for _, b := range chunks(tr.Dirty.Tuples[:preloadRows], preloadBatch) {
		if err := sess.Ingest(fresh(b)); err != nil {
			return out, err
		}
	}
	if _, err := sess.Flush(); err != nil {
		return out, err
	}
	batches := chunks(tr.Dirty.Tuples[preloadRows:], streamBatch)
	if rec != nil {
		rec.reset()
	}
	timed := func(name string, f func() error) (time.Duration, error) {
		if rec != nil {
			return rec.call(name, f)
		}
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	}
	heap0 := heapLive()
	remaining := 0
	for c := 0; c < cycles; c++ {
		m0 := readMem()
		for _, b := range batches[c*flushEvery : (c+1)*flushEvery] {
			b := fresh(b)
			d, err := timed(callIngest, func() error { return sess.Ingest(b) })
			if err != nil {
				return out, err
			}
			out.wall += d
		}
		var rep cleanse.Report
		d, err := timed(callFlush, func() error {
			var err error
			rep, err = sess.Flush()
			return err
		})
		if err != nil {
			return out, err
		}
		out.wall += d
		out.flushWall += d
		remaining += rep.RemainingViolations
		m1 := readMem()
		out.allocs = append(out.allocs, m0.mb(m1))
		out.mallocs = append(out.mallocs, m0.k(m1))
	}
	if rec == nil {
		out.heapGrowthKB = float64(int64(heapLive())-int64(heap0)) / 1024 / float64(cycles)
	} else {
		out.layers = rec.layerTotals()
	}
	r.check(fmt.Sprintf("replay flushes end with 0 violations (traced=%v)", rec != nil), remaining == 0, "%d violations left", remaining)
	return out, nil
}
