package service

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

// TestInstanceCacheAcrossJobs: the deployment-build cache is one shared
// structure across jobs — a later job scheduling a different algorithm on a
// deployment an earlier job built reuses it, fully result-cached reruns
// never touch it, and the /metrics series track every transition.
func TestInstanceCacheAcrossJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// Job 1: two algorithms on one deployment — one build, one reuse.
	job1 := `{"scenarios":["uniform"],"ns":[200],"seeds":1,"seed":7,"algos":["greedy","dsatur"]}`
	st, code := postJob(t, ts, job1)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitStatus(t, ts, st.ID, StatusDone, 30*time.Second)
	hits, misses, _ := s.deploy.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("job1: hits=%d misses=%d, want 1/1", hits, misses)
	}

	// Job 2: a third algorithm, same deployment, different job — a result-
	// cache miss but an instance-cache hit across the job boundary.
	job2 := `{"scenarios":["uniform"],"ns":[200],"seeds":1,"seed":7,"algos":["lengthclass"]}`
	st2, _ := postJob(t, ts, job2)
	waitStatus(t, ts, st2.ID, StatusDone, 30*time.Second)
	hits, misses, _ = s.deploy.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("job2: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// Job 3: resubmit job 1 — served entirely from the result cache, so the
	// instance cache must not move at all.
	st3, _ := postJob(t, ts, job1)
	fin := waitStatus(t, ts, st3.ID, StatusDone, 30*time.Second)
	if fin.CacheHits != 2 {
		t.Fatalf("resubmitted job cache_hits=%d, want 2", fin.CacheHits)
	}
	hits, misses, _ = s.deploy.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("cached rerun moved the instance cache: hits=%d misses=%d", hits, misses)
	}

	// Job 4: a new seed is a new deployment.
	job4 := `{"scenarios":["uniform"],"ns":[200],"seeds":1,"seed":8,"algos":["greedy"]}`
	st4, _ := postJob(t, ts, job4)
	waitStatus(t, ts, st4.ID, StatusDone, 30*time.Second)
	hits, misses, _ = s.deploy.Stats()
	if hits != 2 || misses != 2 || s.deploy.Len() != 2 {
		t.Fatalf("job4: hits=%d misses=%d len=%d, want 2/2/2", hits, misses, s.deploy.Len())
	}

	// The metrics contract mirrors the same numbers.
	samples := checkExposition(t, scrape(t, ts.URL))
	for name, want := range map[string]float64{
		"aggrate_instance_cache_hits_total":   2,
		"aggrate_instance_cache_misses_total": 2,
		"aggrate_instance_cache_entries":      2,
	} {
		if got := samples[name]; got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestSchedCacheAcrossPowers: a job fanning one algorithm out over power
// schemes shares the pre-power schedule stage — the deployment entry's stage
// map builds each (SchedKey, γ) rung once and serves the other power
// variants from it — and the sched-cache /metrics series track it.
func TestSchedCacheAcrossPowers(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	job := `{"scenarios":["uniform"],"ns":[200],"seeds":1,"seed":7,"algos":["greedy"],"powers":["mean","linear"]}`
	st, code := postJob(t, ts, job)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitStatus(t, ts, st.ID, StatusDone, 30*time.Second)
	hits, misses := s.deploy.SchedStats()
	if hits < 1 || misses < 1 {
		t.Fatalf("sched cache hits=%d misses=%d, want at least one build and one reuse", hits, misses)
	}
	samples := checkExposition(t, scrape(t, ts.URL))
	if samples["aggrate_sched_cache_hits_total"] != float64(hits) ||
		samples["aggrate_sched_cache_misses_total"] != float64(misses) {
		t.Fatalf("sched cache series (%v, %v) != counters (%d, %d)",
			samples["aggrate_sched_cache_hits_total"], samples["aggrate_sched_cache_misses_total"], hits, misses)
	}
}

// TestInstanceCacheEviction: a size-1 cache serving two interleaved
// deployments evicts between them; the eviction counter and entry gauge
// expose it, and results are unharmed.
func TestInstanceCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, InstanceCacheSize: 1})
	// seeds=2 expands to two deployments inside one job; with one worker the
	// specs run algo-by-algo, so the single entry thrashes between seeds.
	grid := `{"scenarios":["uniform"],"ns":[150],"seeds":2,"seed":11,"algos":["greedy","dsatur"]}`
	st, code := postJob(t, ts, grid)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	fin := waitStatus(t, ts, st.ID, StatusDone, 30*time.Second)
	if fin.Completed != 4 {
		t.Fatalf("job finished %d specs, want 4", fin.Completed)
	}
	hits, misses, evictions := s.deploy.Stats()
	if hits+misses != 4 || misses < 2 {
		t.Fatalf("stats hits=%d misses=%d, want 4 touches with >= 2 misses", hits, misses)
	}
	if evictions < 1 || s.deploy.Len() != 1 {
		t.Fatalf("evictions=%d len=%d, want >= 1 eviction and 1 entry", evictions, s.deploy.Len())
	}
	samples := checkExposition(t, scrape(t, ts.URL))
	if samples["aggrate_instance_cache_evictions_total"] != float64(evictions) {
		t.Fatalf("evictions series %v != %d", samples["aggrate_instance_cache_evictions_total"], evictions)
	}
}

// TestInstanceCacheDisabled: a negative size turns the cache off — jobs
// still complete, every spec rebuilds, and the server's cache stays empty
// with its series at zero.
func TestInstanceCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, InstanceCacheSize: -1})
	job := `{"scenarios":["uniform"],"ns":[200],"seeds":1,"seed":7,"algos":["greedy","dsatur"]}`
	st, code := postJob(t, ts, job)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitStatus(t, ts, st.ID, StatusDone, 30*time.Second)
	hits, misses, evictions := s.deploy.Stats()
	sh, sm := s.deploy.SchedStats()
	if n := s.deploy.Len(); n != 0 || hits != 0 || misses != 0 || evictions != 0 || sh != 0 || sm != 0 {
		t.Fatalf("disabled cache: len=%d stats %d/%d/%d sched %d/%d, want all 0", n, hits, misses, evictions, sh, sm)
	}
	samples := checkExposition(t, scrape(t, ts.URL))
	for _, name := range []string{
		"aggrate_instance_cache_hits_total",
		"aggrate_instance_cache_misses_total",
		"aggrate_instance_cache_entries",
	} {
		if samples[name] != 0 {
			t.Fatalf("%s = %v with the cache disabled", name, samples[name])
		}
	}
}

// TestInstanceCacheJournalReplay: specs resumed from the journal are served
// without recompute, so they must not touch the instance cache — only the
// post-crash remainder generates cache traffic.
func TestInstanceCacheJournalReplay(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "journal.ndjson")
	s1, err := New(Config{Workers: 1, JournalPath: jp,
		Faults: Faults{JournalStall: 25 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	grid := `{"scenarios":["uniform"],"ns":[2000],"seeds":3,"seed":5,"algos":["greedy","dsatur"]}`
	st, code := postJob(t, ts1, grid)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts1, st.ID).Completed < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no progress before crash")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Crash()
	ts1.Close()

	s2, err := New(Config{Workers: 1, JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	fin := waitStatus(t, ts2, st.ID, StatusDone, 60*time.Second)
	if !fin.Resumed || fin.Replayed < 1 {
		t.Fatalf("job not resumed from the journal: %+v", fin)
	}
	hits, misses, _ := s2.deploy.Stats()
	if hits+misses != int64(fin.Total-fin.Replayed) {
		t.Fatalf("instance cache saw %d touches, want one per computed spec (%d computed, %d replayed)",
			hits+misses, fin.Total-fin.Replayed, fin.Replayed)
	}
}
