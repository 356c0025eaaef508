package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"twolm/internal/jobspec"
	"twolm/internal/sweep"
)

// testConfig is a small deterministic fleet for the API tests.
func testConfig() Config {
	cfg := Defaults()
	cfg.Workers = 2
	cfg.QueueDepth = 8
	cfg.DrainTimeout = 2 * time.Second
	return cfg
}

// quickJob is a spec small enough to finish in well under a
// millisecond: 64 KiB sequential fill on the seqfold fast path.
const quickJob = `{
  "version": 1,
  "name": "quick",
  "geometry": {"cache_kib": 64},
  "policy": "hardware",
  "workload": {"pattern": "sequential"}
}`

// postJob submits a body and decodes the response JSON into out.
func postJob(t *testing.T, ts *httptest.Server, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp
}

// getJSON fetches a URL and decodes the JSON body.
func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// waitStatus polls a job until it reaches a terminal state.
func waitStatus(t *testing.T, ts *httptest.Server, id string) statusBody {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st statusBody
		getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		switch st.Status {
		case statusDone, statusFailed, statusTimeout, statusCancelled:
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return statusBody{}
}

// TestSubmitPollFetch is the happy path: POST → 202, poll to done,
// fetch the CSV and JSON artifacts, and check they are byte-identical
// to running the same spec through sweep.RunJob directly (the
// cmd/repro -job execution path).
func TestSubmitPollFetch(t *testing.T) {
	srv := NewServer(testConfig())
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var sub map[string]string
	resp := postJob(t, ts, quickJob, &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", resp.StatusCode)
	}
	if sub["id"] == "" || sub["status"] != statusQueued {
		t.Fatalf("submit body = %v", sub)
	}

	st := waitStatus(t, ts, sub["id"])
	if st.Status != statusDone {
		t.Fatalf("status = %q (%s), want done", st.Status, st.Error)
	}
	if st.Lines == 0 || st.Points != 1 {
		t.Errorf("lines=%d points=%d, want nonzero lines and 1 point", st.Lines, st.Points)
	}

	// The reference run: same spec through the shared execution path.
	spec, err := jobspec.Decode(strings.NewReader(quickJob))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.RunJob(context.Background(), *spec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		query string
		want  []byte
	}{
		{"", want.CSV},
		{"?format=csv", want.CSV},
		{"?format=json", want.JSON},
	} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub["id"] + "/result" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result%s = %d", tc.query, resp.StatusCode)
		}
		if !bytes.Equal(buf.Bytes(), tc.want) {
			t.Errorf("result%s differs from direct sweep.RunJob output", tc.query)
		}
	}
}

// TestSubmitValidationErrors pins the 400 contract: strict decoding
// rejects unknown fields, and a spec with several violations reports
// every one with its field path.
func TestSubmitValidationErrors(t *testing.T) {
	srv := NewServer(testConfig())
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	t.Run("unknown field", func(t *testing.T) {
		var eb errorBody
		resp := postJob(t, ts, `{"version":1,"geometri":{"cache_kib":64}}`, &eb)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if !strings.Contains(eb.Error, "geometri") {
			t.Errorf("error %q does not name the unknown field", eb.Error)
		}
	})

	t.Run("not json", func(t *testing.T) {
		resp := postJob(t, ts, `cache_kib=64`, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("grid over the point cap", func(t *testing.T) {
		var eb errorBody
		// 10 x 10 x 10 x 10 x 100 = 10^6 points from a few hundred bytes.
		huge := `{"version": 1, "sweep": {
		  "cache_kib": [64, 128, 192, 256, 320, 384, 448, 512, 576, 640],
		  "channels": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
		  "dimms": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
		  "ratios": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
		  "patterns": ["random"],
		  "seeds": [` + strings.TrimSuffix(strings.Repeat("7,", 100), ",") + `]
		}}`
		resp := postJob(t, ts, huge, &eb)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if len(eb.Violations) != 1 || eb.Violations[0].Field != "sweep" ||
			!strings.Contains(eb.Violations[0].Msg, strconv.Itoa(jobspec.MaxPoints)) {
			t.Errorf("violations = %v, want one on sweep naming the %d-point cap", eb.Violations, jobspec.MaxPoints)
		}
	})

	// The reject-cap-* documents of jobspec's FuzzDecode seed corpus
	// each name a geometry that would make the server allocate
	// gigabytes; each is one 400 violation, never an out-of-memory kill.
	t.Run("hostile geometries", func(t *testing.T) {
		paths, err := filepath.Glob("../../internal/jobspec/testdata/fuzz/FuzzDecode/reject-cap-*")
		if err != nil || len(paths) == 0 {
			t.Fatalf("no reject-cap corpus entries: %v", err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			_, lit, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
			doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			var eb errorBody
			if resp := postJob(t, ts, doc, &eb); resp.StatusCode != http.StatusBadRequest || len(eb.Violations) != 1 {
				t.Errorf("%s: status %d, violations %v; want 400 with one violation",
					filepath.Base(p), resp.StatusCode, eb.Violations)
			}
		}
		if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("healthz after hostile posts: status %d", resp.StatusCode)
		}
	})

	t.Run("every violation reported", func(t *testing.T) {
		var eb errorBody
		bad := `{
		  "version": 9,
		  "geometry": {"cache_kib": 0, "ways": -1},
		  "policy": "psychic",
		  "workload": {"pattern": "zigzag", "scale": 3},
		  "timeout_ms": -5
		}`
		resp := postJob(t, ts, bad, &eb)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		fields := make(map[string]bool)
		for _, v := range eb.Violations {
			fields[v.Field] = true
		}
		for _, want := range []string{
			"version", "geometry.cache_kib", "geometry.ways",
			"policy", "workload.pattern", "workload.scale", "timeout_ms",
		} {
			if !fields[want] {
				t.Errorf("missing violation for %s; got %v", want, eb.Violations)
			}
		}
	})
}

// TestUnknownJob pins the 404s.
func TestUnknownJob(t *testing.T) {
	srv := NewServer(testConfig())
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp := getJSON(t, ts.URL+"/v1/jobs/j-99999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("status GET = %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/j-99999999/result", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("result GET = %d, want 404", resp.StatusCode)
	}
}

// TestResultBeforeDone pins the 409 while a job is still in flight.
func TestResultBeforeDone(t *testing.T) {
	srv := NewServer(testConfig())
	defer srv.Drain()
	block := make(chan struct{})
	srv.exec = func(ctx context.Context, spec *jobspec.Spec) (*sweep.Result, error) {
		<-block
		return &sweep.Result{}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var sub map[string]string
	postJob(t, ts, quickJob, &sub)
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+sub["id"]+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("result while running = %d, want 409", resp.StatusCode)
	}
	close(block)
}

// TestQueueFull pins the backpressure contract: with all workers
// blocked and the queue at capacity, the next POST is rejected with
// 429 and a Retry-After header, its id is not registered, and the
// rejection shows up in the stats.
func TestQueueFull(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 2
	srv := NewServer(cfg)
	defer srv.Drain()
	block := make(chan struct{})
	srv.exec = func(ctx context.Context, spec *jobspec.Spec) (*sweep.Result, error) {
		<-block
		return nil, ctx.Err()
	}
	defer close(block)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One job occupies the worker; wait until it is picked up so the
	// queue capacity below is deterministic.
	var first map[string]string
	postJob(t, ts, quickJob, &first)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st statusBody
		getJSON(t, ts.URL+"/v1/jobs/"+first["id"], &st)
		if st.Status == statusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Fill the queue exactly.
	for i := 0; i < cfg.QueueDepth; i++ {
		if resp := postJob(t, ts, quickJob, nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d = %d, want 202", i, resp.StatusCode)
		}
	}

	var eb errorBody
	resp := postJob(t, ts, quickJob, &eb)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	var st statsBody
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	if st.Admitted != int64(1+cfg.QueueDepth) {
		t.Errorf("admitted = %d, want %d", st.Admitted, 1+cfg.QueueDepth)
	}
}

// TestDeadlineExceeded pins the per-job deadline: a spec-declared
// timeout_ms lands the job in the timeout state, not failed.
func TestDeadlineExceeded(t *testing.T) {
	srv := NewServer(testConfig())
	defer srv.Drain()
	srv.exec = func(ctx context.Context, spec *jobspec.Spec) (*sweep.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var sub map[string]string
	postJob(t, ts, `{"version":1,"geometry":{"cache_kib":64},"timeout_ms":20}`, &sub)
	st := waitStatus(t, ts, sub["id"])
	if st.Status != statusTimeout {
		t.Fatalf("status = %q (%s), want timeout", st.Status, st.Error)
	}
	var stats statsBody
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.TimedOut != 1 {
		t.Errorf("timed_out = %d, want 1", stats.TimedOut)
	}
}

// TestPanicIsolation pins the fleet-survival contract: a panicking
// job becomes a failed job; the worker survives and runs the next one.
func TestPanicIsolation(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	srv := NewServer(cfg)
	defer srv.Drain()
	real := srv.exec
	srv.exec = func(ctx context.Context, spec *jobspec.Spec) (*sweep.Result, error) {
		if spec.Name == "boom" {
			panic("synthetic job panic")
		}
		return real(ctx, spec)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var bad map[string]string
	postJob(t, ts, `{"version":1,"name":"boom","geometry":{"cache_kib":64}}`, &bad)
	st := waitStatus(t, ts, bad["id"])
	if st.Status != statusFailed || !strings.Contains(st.Error, "panic") {
		t.Fatalf("panicking job: status=%q err=%q, want failed/panic", st.Status, st.Error)
	}

	// The same (sole) worker must still be alive to run this one.
	var good map[string]string
	postJob(t, ts, quickJob, &good)
	if st := waitStatus(t, ts, good["id"]); st.Status != statusDone {
		t.Fatalf("job after panic: status=%q (%s), want done", st.Status, st.Error)
	}
}

// TestGracefulDrain pins the SIGTERM contract: draining stops
// admission (POST 503, healthz 503), lets queued jobs finish inside
// the grace period, and Drain returns with the fleet stopped.
func TestGracefulDrain(t *testing.T) {
	srv := NewServer(testConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ids := make([]string, 4)
	for i := range ids {
		var sub map[string]string
		postJob(t, ts, quickJob, &sub)
		ids[i] = sub["id"]
	}

	if n := srv.Drain(); n != 0 {
		t.Errorf("drain cancelled %d jobs, want 0 (grace period fits them)", n)
	}
	for _, id := range ids {
		var st statusBody
		getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		if st.Status != statusDone {
			t.Errorf("job %s after drain: %q (%s), want done", id, st.Status, st.Error)
		}
	}
	if resp := postJob(t, ts, quickJob, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while drained = %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained = %d, want 503", resp.StatusCode)
	}
}

// TestDrainCancelsStuckJobs pins the drain deadline: a job that will
// not finish inside the grace period is cancelled (not abandoned) and
// classified as cancelled, and Drain still returns.
func TestDrainCancelsStuckJobs(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.DrainTimeout = 50 * time.Millisecond
	srv := NewServer(cfg)
	started := make(chan struct{})
	srv.exec = func(ctx context.Context, spec *jobspec.Spec) (*sweep.Result, error) {
		close(started)
		<-ctx.Done() // honors cancellation like the real engine, but never finishes on its own
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var sub map[string]string
	postJob(t, ts, quickJob, &sub)
	<-started

	done := make(chan int64)
	go func() { done <- srv.Drain() }()
	select {
	case n := <-done:
		if n != 1 {
			t.Errorf("drain cancelled %d jobs, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung past its deadline")
	}
	var st statusBody
	getJSON(t, ts.URL+"/v1/jobs/"+sub["id"], &st)
	if st.Status != statusCancelled {
		t.Errorf("stuck job after drain: %q, want cancelled", st.Status)
	}
}

// TestMetricsExposition checks the fleet gauges reach the /metrics
// exposition after a job completes.
func TestMetricsExposition(t *testing.T) {
	srv := NewServer(testConfig())
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var sub map[string]string
	postJob(t, ts, quickJob, &sub)
	waitStatus(t, ts, sub["id"])

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := buf.String()
	for _, metric := range []string{
		"twolm_simd_queue_depth",
		"twolm_simd_workers_busy",
		"twolm_simd_jobs_admitted_total 1",
		"twolm_simd_jobs_completed_total 1",
		"twolm_simd_jobs_rejected_total",
		"twolm_simd_jobs_timeout_total",
		"twolm_simd_demand_lines_total",
		"twolm_simd_bandwidth_lines_per_sec",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
}

// TestBodyTooLarge pins the request-size bound.
func TestBodyTooLarge(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 256
	srv := NewServer(cfg)
	defer srv.Drain()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	big := fmt.Sprintf(`{"version":1,"name":%q,"geometry":{"cache_kib":64}}`,
		strings.Repeat("x", 1024))
	resp := postJob(t, ts, big, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST = %d, want 413", resp.StatusCode)
	}
}
