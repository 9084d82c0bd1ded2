package lru

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBudgets: the entry and byte budgets evict least-recently-used entries
// first, Get promotes and Peek does not, and the newest entry survives even
// when it alone exceeds the byte budget.
func TestBudgets(t *testing.T) {
	c := New[string, int](3, 100)
	c.Add("a", 1, 10)
	c.Add("b", 2, 10)
	c.Add("c", 3, 10)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing under budget")
	}
	if _, ok := c.Peek("b"); !ok {
		t.Fatal("b missing under budget")
	}
	c.Add("d", 4, 10) // entry budget: evicts b (Peek did not promote it)
	if got, want := c.Keys(), []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	c.Add("e", 5, 75) // byte budget: 105 > 100 evicts c
	if got, want := c.Keys(), []string{"e", "d", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	c.Add("f", 6, 500) // oversized: everything else goes, f stays
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"f"}) || c.Bytes() != 500 {
		t.Fatalf("keys %v bytes %d, want [f] 500", got, c.Bytes())
	}
	if hits, misses, evictions := c.Stats(); hits != 1 || misses != 0 || evictions != 5 {
		t.Fatalf("stats %d/%d/%d, want 1/0/5", hits, misses, evictions)
	}
	if !c.Remove("f") || c.Remove("f") || c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("remove: len %d bytes %d", c.Len(), c.Bytes())
	}
}

// TestFillSingleflight: concurrent fills of one key run build once; every
// caller gets the builder's value, and all but the builder count as hits.
func TestFillSingleflight(t *testing.T) {
	c := New[string, int](4, math.MaxInt64)
	release := make(chan struct{})
	var builds atomic.Int32
	build := func() (int, error) {
		builds.Add(1)
		<-release
		return 42, nil
	}
	var wg sync.WaitGroup
	vals := make([]int, 8)
	go func() {
		// Release the builder once every caller has looked the key up.
		for {
			if h, m, _ := c.Stats(); h+m == int64(len(vals)) {
				close(release)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Fill(context.Background(), "k", build)
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	if hits, misses, _ := c.Stats(); hits != 7 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 7/1", hits, misses)
	}
}

// TestFillFailure: a failed build is dropped, its waiter builds cold under
// its own context without publishing, and the next caller retries.
func TestFillFailure(t *testing.T) {
	c := New[string, int](4, math.MaxInt64)
	entered, release := make(chan struct{}), make(chan struct{})
	boom := errors.New("boom")
	builderErr := make(chan error)
	go func() {
		_, _, err := c.Fill(context.Background(), "k", func() (int, error) {
			close(entered)
			<-release
			return 0, boom
		})
		builderErr <- err
	}()
	<-entered

	type res struct {
		v   int
		hit bool
		err error
	}
	waiter := make(chan res)
	go func() {
		v, hit, err := c.Fill(context.Background(), "k", func() (int, error) { return 7, nil })
		waiter <- res{v, hit, err}
	}()
	// A waiter whose own context ends gives up without touching the entry.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, hit, err := c.Fill(ctx, "k", nil); !hit || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: hit=%v err=%v", hit, err)
	}
	for {
		if h, _, _ := c.Stats(); h == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get served an in-flight entry")
	}
	close(release)
	if err := <-builderErr; err != boom {
		t.Fatalf("builder err %v", err)
	}
	if w := <-waiter; w.err != nil || w.v != 7 || !w.hit {
		t.Fatalf("waiter: %+v, want a cold build of 7", w)
	}
	if c.Len() != 0 {
		t.Fatalf("failed or cold build cached: len %d", c.Len())
	}
	v, hit, err := c.Fill(context.Background(), "k", func() (int, error) { return 9, nil })
	if err != nil || hit || v != 9 || c.Len() != 1 {
		t.Fatalf("retry: v=%d hit=%v err=%v len=%d", v, hit, err, c.Len())
	}
}

// TestFillNeverEvictsInFlight: an in-flight fill survives insertions past
// the entry budget, and a detached fill (key re-added meanwhile) serves its
// waiters without overwriting the newer entry.
func TestFillNeverEvictsInFlight(t *testing.T) {
	c := New[string, int](1, math.MaxInt64)
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _, _ := c.Fill(context.Background(), "slow", func() (int, error) {
			close(entered)
			<-release
			return 1, nil
		})
		done <- v
	}()
	<-entered
	c.Add("x", 2, 0)
	if c.Len() != 2 {
		t.Fatalf("in-flight fill evicted: len %d", c.Len())
	}
	c.Add("slow", 3, 0) // detaches the fill; evicts x
	close(release)
	if v := <-done; v != 1 {
		t.Fatalf("builder got %d", v)
	}
	if v, ok := c.Peek("slow"); !ok || v != 3 || c.Len() != 1 {
		t.Fatalf("detached fill overwrote the newer entry: %d %v len %d", v, ok, c.Len())
	}
}

// model is the trivial reference for FuzzCacheMatchesModel: a slice in
// recency order (most recent first) with linear scans.
type model struct {
	maxEntries              int
	maxBytes                int64
	ents                    []modelEntry
	hits, misses, evictions int64
}

type modelEntry struct {
	key, val int
	size     int64
	fill     int // id of the in-flight fill owning the entry, 0 when ready
}

func (m *model) find(key int) int {
	for i, e := range m.ents {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (m *model) remove(i int) modelEntry {
	e := m.ents[i]
	m.ents = append(m.ents[:i], m.ents[i+1:]...)
	return e
}

func (m *model) front(e modelEntry) {
	m.ents = append([]modelEntry{e}, m.ents...)
}

func (m *model) bytes() int64 {
	var b int64
	for _, e := range m.ents {
		b += e.size
	}
	return b
}

func (m *model) insert(e modelEntry) {
	m.front(e)
	for len(m.ents) > 1 && (len(m.ents) > m.maxEntries || m.bytes() > m.maxBytes) {
		i := len(m.ents) - 1
		for i > 0 && m.ents[i].fill != 0 {
			i--
		}
		if i == 0 {
			return
		}
		m.remove(i)
		m.evictions++
	}
}

func (m *model) keys() []int {
	keys := make([]int, len(m.ents))
	for i, e := range m.ents {
		keys[i] = e.key
	}
	return keys
}

// pendingFill is one in-flight Fill of the real cache, parked inside build.
type pendingFill struct {
	id, key int
	result  chan int // a value to publish, or -1 to fail
	done    chan int // Fill's returned value, or -1 on error
}

// FuzzCacheMatchesModel drives the cache and the slice model through the
// same random sequence of Add, Get, Peek, Remove, fill start and fill
// finish/fail, requiring identical lookups, key order (and hence eviction
// order), byte totals and counters after every step.
func FuzzCacheMatchesModel(f *testing.F) {
	f.Add([]byte{3, 40, 0, 1, 5, 0, 2, 9, 1, 1, 6, 3, 2, 5, 4, 1, 5, 2, 3, 1})
	f.Add([]byte{1, 0, 4, 1, 0, 4, 2, 0, 0, 3, 9, 5, 0, 1, 5, 1, 0, 4, 3, 1, 2, 2})
	f.Add([]byte{2, 20, 4, 0, 4, 1, 4, 2, 0, 3, 30, 5, 1, 5, 0, 1, 0, 2, 0, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := &model{maxEntries: int(data[0] % 6), maxBytes: int64(data[1] % 64)}
		c := New[int, int](m.maxEntries, m.maxBytes)
		var pending []*pendingFill
		nextID := 0
		defer func() {
			// Unpark any fill still in flight so no goroutine outlives the run.
			for _, p := range pending {
				p.result <- -1
				<-p.done
			}
		}()
		boom := errors.New("boom")
		data = data[2:]
		for step := 0; len(data) >= 2; step++ {
			op, arg := data[0]%7, data[1]
			data = data[2:]
			key := int(arg % 8)
			switch op {
			case 0: // Add
				size := int64(arg / 8)
				val := 100*step + key
				if i := m.find(key); i >= 0 {
					m.remove(i)
				}
				m.insert(modelEntry{key: key, val: val, size: size})
				c.Add(key, val, size)
			case 1, 2: // Get, Peek
				var got, want int
				var ok, wantOK bool
				if op == 1 {
					got, ok = c.Get(key)
				} else {
					got, ok = c.Peek(key)
				}
				if i := m.find(key); i >= 0 && m.ents[i].fill == 0 {
					want, wantOK = m.ents[i].val, true
					if op == 1 {
						m.hits++
						m.front(m.remove(i))
					}
				} else if op == 1 {
					m.misses++
				}
				if got != want || ok != wantOK {
					t.Fatalf("step %d: lookup %d = (%d, %v), model (%d, %v)", step, key, got, ok, want, wantOK)
				}
			case 3: // Remove
				i := m.find(key)
				if i >= 0 {
					m.remove(i)
				}
				if got := c.Remove(key); got != (i >= 0) {
					t.Fatalf("step %d: Remove(%d) = %v, model %v", step, key, got, i >= 0)
				}
			case 4: // Fill start (a ready key answers synchronously)
				i := m.find(key)
				if i >= 0 && m.ents[i].fill != 0 {
					continue // a second waiter's timing is not deterministic
				}
				if i >= 0 {
					m.hits++
					want := m.ents[i].val
					m.front(m.remove(i))
					got, hit, err := c.Fill(context.Background(), key, nil)
					if got != want || !hit || err != nil {
						t.Fatalf("step %d: Fill(%d) = (%d, %v, %v), model %d", step, key, got, hit, err, want)
					}
					break
				}
				nextID++
				p := &pendingFill{id: nextID, key: key, result: make(chan int), done: make(chan int)}
				m.misses++
				m.insert(modelEntry{key: key, fill: p.id})
				entered := make(chan struct{})
				go func() {
					v, hit, err := c.Fill(context.Background(), p.key, func() (int, error) {
						close(entered)
						if v := <-p.result; v >= 0 {
							return v, nil
						}
						return 0, boom
					})
					if err != nil {
						v = -1
					}
					if hit {
						v = -2 // the builder's own lookup is never a hit
					}
					p.done <- v
				}()
				<-entered
				pending = append(pending, p)
			case 5, 6: // Fill finish (5) or fail (6) of one pending fill
				if len(pending) == 0 {
					continue
				}
				j := int(arg) % len(pending)
				p := pending[j]
				pending = append(pending[:j], pending[j+1:]...)
				val := -1
				if op == 5 {
					val = 1000 + step
				}
				if i := m.find(p.key); i >= 0 && m.ents[i].fill == p.id {
					if val >= 0 {
						m.ents[i].val, m.ents[i].fill = val, 0
					} else {
						m.remove(i)
					}
				}
				p.result <- val
				if got := <-p.done; got != val {
					t.Fatalf("step %d: fill of %d returned %d, want %d", step, p.key, got, val)
				}
			}
			if got, want := c.Keys(), m.keys(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (op %d key %d): keys %v, model %v", step, op, key, got, want)
			}
			h, mi, ev := c.Stats()
			got := fmt.Sprint(c.Len(), c.Bytes(), h, mi, ev)
			want := fmt.Sprint(len(m.ents), m.bytes(), m.hits, m.misses, m.evictions)
			if got != want {
				t.Fatalf("step %d: len/bytes/hits/misses/evictions %s, model %s", step, got, want)
			}
		}
	})
}
