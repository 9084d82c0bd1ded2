package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"aggrate/internal/experiment"
)

// newTestServer boots a Server behind httptest and tears both down with the
// test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("submit response not JSON: %v", err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitStatus polls until the job reaches want (or the deadline trips).
func waitStatus(t *testing.T, ts *httptest.Server, id, want string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id)
		if st.Status == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthz: the liveness endpoint reports ok and the server gauges.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["queue_size"].(float64) <= 0 {
		t.Fatalf("healthz payload %v", h)
	}
}

// TestSubmitValidation: every malformed grid is rejected up front with 400
// and a pointed message — no instance ever runs.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSpecs: 10})
	cases := []struct {
		name, body, wantErr string
	}{
		{"empty body", `{}`, "scenarios is required"},
		{"bad json", `{`, "bad request body"},
		{"unknown field", `{"scenarios":["uniform"],"bogus":1}`, "bogus"},
		{"bad scenario", `{"scenarios":["nope"]}`, "unknown preset"},
		{"small n", `{"scenarios":["uniform"],"ns":[1]}`, "must be >= 2"},
		{"bad power", `{"scenarios":["uniform"],"powers":["warp"]}`, "unknown power"},
		{"bad algo", `{"scenarios":["uniform"],"algos":["warp"]}`, "unknown algorithm"},
		{"bad graph", `{"scenarios":["uniform"],"graph":"warp"}`, "unknown graph"},
		{"bad engine", `{"scenarios":["uniform"],"verify_engine":"warp"}`, "unknown verify_engine"},
		{"bad alpha", `{"scenarios":["uniform"],"alpha":1.5}`, "alpha"},
		{"oversized grid", `{"scenarios":["uniform"],"ns":[100,200],"seeds":6}`, "server limit"},
		{"overflowing grid", `{"scenarios":["uniform"],"ns":[100],"seeds":4611686018427387904,"algos":["greedy","dsatur"]}`, "grid expands to 9223372036854775808 specs"},
		{"wrapping grid", `{"scenarios":["uniform"],"ns":[100],"seeds":4611686018427387904,"algos":["greedy","dsatur","jp","naive"]}`, "grid expands to 18446744073709551616 specs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, buf.String())
			}
			if !strings.Contains(buf.String(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", buf.String(), tc.wantErr)
			}
		})
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/j999999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job id: err=%v status=%d, want 404", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

const smallGrid = `{"scenarios":["uniform"],"ns":[60,80],"seeds":2,"seed":21,"algos":["greedy"]}`

// TestJobLifecycleStreamAndCache is the end-to-end serve proof: submit a
// grid, stream its results as NDJSON while it runs, confirm the terminal
// status, then resubmit the identical grid and get every result back as a
// cache hit with no recomputation.
func TestJobLifecycleStreamAndCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	st, code := postJob(t, ts, smallGrid)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if st.Total != 4 || st.ID == "" {
		t.Fatalf("submit payload %+v, want 4 specs and an id", st)
	}

	// Stream: one NDJSON line per instance, then the terminal line.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var items []StreamItem
	var final map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]any
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("stream line not JSON: %v\n%s", err, line)
		}
		if probe["done"] == true {
			final = probe
			break
		}
		if _, isEvent := probe["event"]; isEvent {
			continue // lifecycle trace lines interleave with results
		}
		var it StreamItem
		if err := json.Unmarshal(line, &it); err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	if len(items) != 4 || final == nil {
		t.Fatalf("streamed %d items, final=%v; want 4 and a done line", len(items), final)
	}
	seen := map[int]bool{}
	for _, it := range items {
		if it.CacheHit {
			t.Fatalf("first run reported cache_hit for index %d", it.Index)
		}
		if it.Result == nil || it.Result.Err != "" || !it.Result.Verified {
			t.Fatalf("stream item %d not a verified result: %+v", it.Index, it.Result)
		}
		seen[it.Index] = true
	}
	if len(seen) != 4 {
		t.Fatalf("stream covered indices %v, want all of 0..3", seen)
	}
	if final["status"] != StatusDone || final["completed"].(float64) != 4 {
		t.Fatalf("final stream line %v", final)
	}

	// Status endpoint agrees and carries the results array.
	done := waitStatus(t, ts, st.ID, StatusDone, 5*time.Second)
	if done.Completed != 4 || done.CacheHits != 0 || len(done.Results) != 4 {
		t.Fatalf("done status %+v", done)
	}

	// Identical resubmission: served entirely from the spec-keyed cache.
	st2, code := postJob(t, ts, smallGrid)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit status %d", code)
	}
	done2 := waitStatus(t, ts, st2.ID, StatusDone, 5*time.Second)
	if done2.CacheHits != 4 || done2.Completed != 4 {
		t.Fatalf("resubmit not served from cache: %+v", done2)
	}
	for _, it := range done2.Results {
		if !it.CacheHit {
			t.Fatalf("resubmitted index %d missed the cache", it.Index)
		}
	}
	// The records themselves are the first run's: same seed-deterministic
	// metrics, spec key for spec key.
	key0 := map[int]string{}
	for _, it := range done.Results {
		key0[it.Index] = it.SpecKey
	}
	for _, it := range done2.Results {
		if key0[it.Index] != it.SpecKey {
			t.Fatalf("spec key changed across identical submissions at index %d", it.Index)
		}
	}

	// A disjoint seed range is a different key set: no false sharing. (An
	// overlapping range would legitimately hit — the cache is per spec, not
	// per job.)
	st3, code := postJob(t, ts, strings.Replace(smallGrid, `"seed":21`, `"seed":50`, 1))
	if code != http.StatusAccepted {
		t.Fatalf("third submit status %d", code)
	}
	if done3 := waitStatus(t, ts, st3.ID, StatusDone, 10*time.Second); done3.CacheHits != 0 {
		t.Fatalf("different seed hit the cache: %+v", done3)
	}
}

// bigGrid is slow enough (tens of 2000-node instances) that cancellation
// always lands mid-flight.
const bigGrid = `{"scenarios":["uniform"],"ns":[2000],"seeds":40,"seed":31}`

// TestCancelMidFlight: DELETE stops a running job within one chunk
// boundary, the completed prefix survives, and no goroutines leak.
func TestCancelMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	st, code := postJob(t, ts, bigGrid)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	// Wait until at least one instance has completed so the cancel is truly
	// mid-batch.
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, st.ID).Completed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no instance completed before cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	deleteJob(t, ts, st.ID)
	fin := waitStatus(t, ts, st.ID, StatusCancelled, 5*time.Second)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v", elapsed)
	}
	if fin.Completed == 0 || fin.Completed >= fin.Total {
		t.Fatalf("cancelled job has %d/%d results, want a strict partial prefix", fin.Completed, fin.Total)
	}
	for _, it := range fin.Results {
		if it.Result == nil || it.Result.Err != "" {
			t.Fatalf("partial result %d malformed: %+v", it.Index, it.Result)
		}
	}

	// The stream of a cancelled job terminates with done=true.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	resp.Body.Close()
	if !bytes.Contains(last, []byte(`"done":true`)) || !bytes.Contains(last, []byte(StatusCancelled)) {
		t.Fatalf("cancelled stream terminal line: %s", last)
	}

	// Teardown and goroutine accounting: everything the job and server
	// spawned must unwind.
	ts.Close()
	s.Close()
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestQueueBoundsAndQueuedCancel: a full queue rejects with 503, and a
// queued job can be cancelled before it ever runs.
func TestQueueBoundsAndQueuedCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1})

	running, code := postJob(t, ts, bigGrid) // occupies the executor
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	queued, code := postJob(t, ts, smallGrid) // sits in the queue
	if code != http.StatusAccepted {
		t.Fatalf("second submit status %d", code)
	}
	// Third submission finds the queue slot occupied.
	rejectedAt := -1
	for i := 0; i < 20; i++ {
		if _, code = postJob(t, ts, smallGrid); code == http.StatusServiceUnavailable {
			rejectedAt = i
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rejectedAt < 0 {
		t.Fatal("bounded queue never rejected a submission")
	}

	// Cancel the queued job: it must go terminal without running anything.
	if st := deleteJob(t, ts, queued.ID); st.Status != StatusCancelled {
		t.Fatalf("queued job after DELETE: %+v", st)
	}
	if st := getStatus(t, ts, queued.ID); st.Completed != 0 || st.Status != StatusCancelled {
		t.Fatalf("cancelled queued job ran: %+v", st)
	}
	deleteJob(t, ts, running.ID)
	waitStatus(t, ts, running.ID, StatusCancelled, 10*time.Second)
}

// TestJobTimeout: a request-level timeout cancels the job like DELETE,
// keeping the completed prefix. The timeout is a small fraction of the
// job's run time (bigGrid runs ~0.4s with two workers on a 2-vCPU host),
// so the job cannot finish first.
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := strings.TrimSuffix(bigGrid, "}") + `,"timeout_sec":0.1}`
	st, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	fin := waitStatus(t, ts, st.ID, StatusCancelled, 15*time.Second)
	if fin.Completed >= fin.Total {
		t.Fatalf("timed-out job completed fully: %+v", fin)
	}
}

// TestCacheEviction: the LRU respects its capacity and evicts oldest-first.
func TestCacheEviction(t *testing.T) {
	c := newResultCache(2, 0)
	r := &experiment.Result{}
	c.add("a", r)
	c.add("b", r)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted under capacity")
	}
	c.add("c", r) // evicts b (a was just touched)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
}

// TestJobRetention: past MaxJobs, the oldest finished job records are
// evicted (404 afterwards) while newer ones survive — the registry's
// memory stays bounded on a long-running server.
func TestJobRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxJobs: 2})
	grid := func(seed int) string {
		return strings.Replace(smallGrid, `"seed":21`, fmt.Sprintf(`"seed":%d`, 100+seed), 1)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		st, code := postJob(t, ts, grid(i))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		waitStatus(t, ts, st.ID, StatusDone, 10*time.Second)
		ids = append(ids, st.ID)
	}
	// The two oldest records are gone; the two newest remain.
	for _, id := range ids[:2] {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("evicted job %s: status %d, want 404", id, resp.StatusCode)
		}
	}
	for _, id := range ids[2:] {
		if st := getStatus(t, ts, id); st.Status != StatusDone {
			t.Fatalf("retained job %s in state %q", id, st.Status)
		}
	}
}

// TestSubmitAfterClose: a closed server refuses new work cleanly.
func TestSubmitAfterClose(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	if _, code := postJob(t, ts, smallGrid); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: status %d, want 503", code)
	}
	// And Close is idempotent.
	s.Close()
}
