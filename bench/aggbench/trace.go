package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one spec share Trace; the
// root span of a spec has Parent 0.
type span struct {
	ID         int                `json:"id"`
	Parent     int                `json:"parent"`
	Trace      int                `json:"trace"`
	Name       string             `json:"name"`
	StartNs    int64              `json:"start_ns"`
	EndNs      int64              `json:"end_ns"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Counters   map[string]float64 `json:"counters,omitempty"`
	alloc0     uint64
}

// recorder keeps every span in memory until the replay ends. It is safe for
// concurrent use: power.Solve spans start on the verifier's worker
// goroutines. Spans are held by pointer so that growing the list copies
// pointers, not spans: a copy of thousands of spans inside a short spec's
// root span would otherwise read as unattributed time.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// heapAllocs reads the process-wide cumulative heap allocation counter.
// Spans that overlap in time (the concurrent solves) therefore also count
// each other's bytes; the layer tables only sum sequential spans.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// begin opens a span and returns its id, which children pass as parent.
// The clock is read first and last, so the recorder's own work (the
// allocation counter read, the lock) is charged to the span it serves
// rather than to its parent.
func (r *recorder) begin(trace, parent int, name string) int {
	start := time.Since(r.epoch).Nanoseconds()
	a := heapAllocs()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, &span{
		ID: id, Parent: parent, Trace: trace, Name: name, StartNs: start, alloc0: a,
	})
	return id
}

// end closes span id and attaches its counters.
func (r *recorder) end(id int, counters map[string]float64) {
	a := heapAllocs()
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id-1]
	s.EndNs = now
	s.AllocBytes = a - s.alloc0
	s.Counters = counters
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, len(r.spans))
	for i, s := range r.spans {
		out[i] = *s
	}
	return out
}

func (s span) dur() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// selfTimes returns each span's self time in seconds: its duration minus
// the union of its children's intervals (clipped to the span). Where
// siblings overlap — the concurrent power solves under one verify — their
// self times are scaled down so that together they fill exactly the union
// they cover. The self times of one trace therefore sum to its root span's
// duration.
func selfTimes(spans []span) map[int]float64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make(map[int]float64, len(spans))
	scale := make(map[int]float64)
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, total int64
		hi := s.StartNs
		for _, c := range iv {
			total += c[1] - c[0]
			lo, e := max(c[0], hi), min(c[1], s.EndNs)
			if e > lo {
				covered += e - lo
				hi = e
			}
		}
		self[s.ID] = float64(s.EndNs-s.StartNs-covered) / 1e9
		if total > 0 {
			scale[s.ID] = float64(covered) / float64(total)
		}
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.ID] *= scale[s.Parent]
		}
	}
	return self
}

// writeSpans stores the spans as JSON for offline inspection.
func writeSpans(path, workload string, seed uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
