package coloring

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"aggrate/internal/conflict"
	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/rng"
	"aggrate/internal/scenario"
)

// This file pins the CSR-based colorings against slice-based oracles: the
// pre-CSR implementations, retained verbatim below over [][]int32 adjacency
// lists. Any divergence — a different palette, a different vertex order, a
// different tie-break — fails the property tests.

// adjacency expands the graph's one-sided CSR rows back into symmetric
// per-vertex slices for the oracles: every entry w of row v makes w a
// neighbor of v and v a neighbor of w. Each slice is sorted ascending.
func adjacency(g *conflict.Graph) [][]int32 {
	adj := make([][]int32, g.N())
	for v := range adj {
		for _, w := range g.Row(v) {
			adj[v] = append(adj[v], w)
			adj[w] = append(adj[w], int32(v))
		}
	}
	for _, row := range adj {
		slices.Sort(row)
	}
	return adj
}

// jpOrderOracle is the order in which JP's rounds color the vertices: a
// vertex waits for every neighbor of higher priority and no lower one
// colors before it, so JP is first-fit along descending priority, ties
// broken by descending index.
func jpOrderOracle(n int, seed uint64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	prio := func(v int) uint64 { return splitmix64(seed ^ uint64(v)) }
	sort.Slice(order, func(a, b int) bool {
		pa, pb := prio(order[a]), prio(order[b])
		if pa != pb {
			return pa > pb
		}
		return order[a] > order[b]
	})
	return order
}

// firstFitOracle is the pre-CSR FirstFit: clear-a-palette per vertex.
func firstFitOracle(adj [][]int32, order []int) ([]int, int) {
	n := len(adj)
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	numColors := 0
	used := make([]bool, n+1)
	for _, v := range order {
		for c := 0; c <= numColors; c++ {
			used[c] = false
		}
		for _, w := range adj[v] {
			if c := colors[w]; c >= 0 {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
		if c+1 > numColors {
			numColors = c + 1
		}
	}
	return colors, numColors
}

// byLengthOrderOracle is the pre-CSR ByLengthOrder: a stable sort comparing
// link lengths recomputed per comparison.
func byLengthOrderOracle(links []geom.Link) []int {
	order := make([]int, len(links))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := links[order[a]].Length(), links[order[b]].Length()
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	return order
}

// oracleSatEntry et al. reproduce the pre-CSR DSATUR exactly: lazy
// container/heap priority queue and per-vertex neighbor-color maps.
type oracleSatEntry struct {
	v        int32
	sat, deg int32
}

type oracleSatHeap []oracleSatEntry

func (h oracleSatHeap) Len() int { return len(h) }
func (h oracleSatHeap) Less(a, b int) bool {
	if h[a].sat != h[b].sat {
		return h[a].sat > h[b].sat
	}
	if h[a].deg != h[b].deg {
		return h[a].deg > h[b].deg
	}
	return h[a].v < h[b].v
}
func (h oracleSatHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *oracleSatHeap) Push(x any)   { *h = append(*h, x.(oracleSatEntry)) }
func (h *oracleSatHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func dsaturOracle(adj [][]int32) ([]int, int) {
	n := len(adj)
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	neighborColors := make([]map[int]struct{}, n)
	sat := make([]int32, n)
	h := make(oracleSatHeap, n)
	for v := 0; v < n; v++ {
		h[v] = oracleSatEntry{v: int32(v), sat: 0, deg: int32(len(adj[v]))}
	}
	heap.Init(&h)
	numColors := 0
	used := make([]bool, n+1)
	for colored := 0; colored < n; {
		e := heap.Pop(&h).(oracleSatEntry)
		v := int(e.v)
		if colors[v] >= 0 || e.sat != sat[v] {
			continue
		}
		for c := 0; c <= numColors; c++ {
			used[c] = false
		}
		for _, w := range adj[v] {
			if c := colors[w]; c >= 0 {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
		colored++
		if c+1 > numColors {
			numColors = c + 1
		}
		for _, w := range adj[v] {
			wi := int(w)
			if colors[wi] >= 0 {
				continue
			}
			if neighborColors[wi] == nil {
				neighborColors[wi] = make(map[int]struct{})
			}
			if _, ok := neighborColors[wi][c]; !ok {
				neighborColors[wi][c] = struct{}{}
				sat[wi]++
				heap.Push(&h, oracleSatEntry{v: w, sat: sat[wi], deg: int32(len(adj[wi]))})
			}
		}
	}
	return colors, numColors
}

// denseLinks returns n links with uniform random senders in a side×side
// square, lengths uniform in [20, 120) and uniform directions. Unlike MST
// links they overlap freely, so every conflict-graph flavor of the suite is
// dense on them: at n=700, side=200 even G_γ(1) has mean degree above 200
// and rows far past the conflict builder's long-row sort cutoff (see
// TestDenseInstanceIsDense).
func denseLinks(n int, seed uint64, side float64) []geom.Link {
	r := rng.New(seed)
	links := make([]geom.Link, n)
	for i := range links {
		a := geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
		l := 20 + 100*r.Float64()
		th := 2 * math.Pi * r.Float64()
		links[i] = geom.NewLink(2*i, 2*i+1, a, geom.Point{X: a.X + l*math.Cos(th), Y: a.Y + l*math.Sin(th)})
	}
	return links
}

// parityInstances materializes the link sets of the property suite: the
// MST links of uniform, cluster and annulus scenarios across several sizes
// and seeds, plus one dense overlapping instance where DSATUR's heap and
// the long-row CSR sort do real work.
func parityInstances(t *testing.T) map[string][]geom.Link {
	t.Helper()
	out := make(map[string][]geom.Link)
	for _, preset := range []string{"uniform", "cluster", "annulus"} {
		sc, err := scenario.Lookup(preset)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{60, 300, 900} {
			for seed := uint64(1); seed <= 2; seed++ {
				tree, err := mst.NewMSTTree(sc.Generate(n, seed), 0)
				if err != nil {
					t.Fatal(err)
				}
				out[preset+"/"+string(rune('0'+n/100))+"x"+string(rune('0'+seed))] = tree.Links
			}
		}
	}
	out["dense/7x1"] = denseLinks(700, 1, 200)
	return out
}

// TestDenseInstanceIsDense keeps the dense parity instance honest: under
// every flavor of the suite its mean degree is at least 200 and its longest
// one-sided row is well past the 32-entry long-row cutoff of the conflict
// builder's row sort.
func TestDenseInstanceIsDense(t *testing.T) {
	links := parityInstances(t)["dense/7x1"]
	for _, f := range testFlavors() {
		g := buildGraph(t, links, f.fam, f.gamma)
		if d := g.AverageDegree(); d < 200 || g.MaxBackDegree() < 64 {
			t.Fatalf("%s: mean degree %.1f, longest row %d; want >= 200 and >= 64", f.Name, d, g.MaxBackDegree())
		}
	}
}

// FuzzDSaturMatchesOracle checks the indexed-heap DSatur against the
// lazy-heap slice oracle on random graphs: n ≤ 300 vertices, each pair an
// edge with probability density ∈ [0, 0.6], so the graphs range from
// edgeless to rows far longer than the bitset word and the sort cutoff.
// First-fit in index order is checked alongside it.
func FuzzDSaturMatchesOracle(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint64(1))
	f.Add(uint16(1), uint8(60), uint64(2))
	f.Add(uint16(40), uint8(10), uint64(3))
	f.Add(uint16(300), uint8(60), uint64(4))
	f.Add(uint16(200), uint8(25), uint64(5))
	f.Fuzz(func(t *testing.T, nRaw uint16, densityRaw uint8, seed uint64) {
		n := int(nRaw) % 301
		p := float64(densityRaw%61) / 100
		r := rng.New(seed)
		adj := make([][]int32, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < p {
					adj[i] = append(adj[i], int32(j))
					adj[j] = append(adj[j], int32(i))
				}
			}
		}
		g := conflict.FromAdj(make([]geom.Link, n), adj)
		ws := NewWorkspace()
		colors := make([]int, n)
		k := ws.DSatur(g, colors)
		wc, wk := dsaturOracle(adjacency(g))
		sameColoring(t, "dsatur", colors, k, wc, wk)
		order := IndexOrder(n)
		k = ws.FirstFitAnyOrder(g, order, colors)
		wc, wk = firstFitOracle(adjacency(g), order)
		sameColoring(t, "firstfit", colors, k, wc, wk)
	})
}

// FuzzOrientedMatchesSymmetric checks every coloring of a one-sided graph
// against the symmetric slice oracles, color for color: a random
// symmetric graph (n ≤ 300, edge probability ≤ 0.6) over links whose
// lengths are drawn from at most eight values, so most of the orientation
// rests on the index tie-break. FromAdj orients the graph by those
// lengths; its rows must transpose back to the input, and FirstFit in
// LengthOrder, first-fit in index order, DSatur and JP must reproduce the
// oracles run on the symmetric adjacency.
func FuzzOrientedMatchesSymmetric(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint8(0), uint64(1))
	f.Add(uint16(2), uint8(60), uint8(0), uint64(2))
	f.Add(uint16(50), uint8(20), uint8(1), uint64(3))
	f.Add(uint16(300), uint8(45), uint8(7), uint64(4))
	f.Add(uint16(150), uint8(5), uint8(3), uint64(5))
	f.Fuzz(func(t *testing.T, nRaw uint16, densityRaw, kindsRaw uint8, seed uint64) {
		n := int(nRaw) % 301
		p := float64(densityRaw%61) / 100
		kinds := int(kindsRaw%8) + 1
		r := rng.New(seed)
		links := make([]geom.Link, n)
		for i := range links {
			s := geom.Point{X: float64(10 * i)}
			links[i] = geom.NewLink(2*i, 2*i+1, s, geom.Point{X: s.X + float64(1+r.Intn(kinds))})
		}
		adj := make([][]int32, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < p {
					adj[i] = append(adj[i], int32(j))
					adj[j] = append(adj[j], int32(i))
				}
			}
		}
		g := conflict.FromAdj(links, adj)
		got := adjacency(g)
		for v := range adj {
			if !slices.Equal(adj[v], got[v]) {
				t.Fatalf("vertex %d: one-sided rows transpose to %v, input %v", v, got[v], adj[v])
			}
			for _, w := range g.Row(v) {
				lv, lw := links[v].Length(), links[w].Length()
				if !(lw > lv || (lw == lv && int(w) < v)) {
					t.Fatalf("row %d holds %d, which comes after it (lengths %g, %g)", v, w, lv, lw)
				}
			}
		}
		ws := NewWorkspace()
		colors := make([]int, n)
		k := ws.FirstFit(g, ws.LengthOrder(g), colors)
		wc, wk := firstFitOracle(adj, byLengthOrderOracle(links))
		sameColoring(t, "firstfit-length", colors, k, wc, wk)
		k = ws.FirstFitAnyOrder(g, IndexOrder(n), colors)
		wc, wk = firstFitOracle(adj, IndexOrder(n))
		sameColoring(t, "firstfit-index", colors, k, wc, wk)
		k = ws.DSatur(g, colors)
		wc, wk = dsaturOracle(adj)
		sameColoring(t, "dsatur", colors, k, wc, wk)
		k = ws.JP(g, seed, colors)
		wc, wk = firstFitOracle(adj, jpOrderOracle(n, seed))
		sameColoring(t, "jp", colors, k, wc, wk)
	})
}

// TestFirstFitRejectsBrokenOrder: FirstFit reads only the one-sided rows,
// so an order that reaches a vertex before one of its row entries would
// color wrongly; it must panic instead, while FirstFitAnyOrder colors the
// same order properly.
func TestFirstFitRejectsBrokenOrder(t *testing.T) {
	g := buildGraph(t, testLinks(t, 300, 11), conflict.PowerLawFamily(0.5), 2)
	ws := NewWorkspace()
	reversed := slices.Clone(ws.LengthOrder(g))
	slices.Reverse(reversed)
	for _, order := range [][]int{reversed, IndexOrder(g.N())} {
		colors := make([]int, g.N())
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			ws.FirstFit(g, order, colors)
			return ""
		}()
		if !strings.Contains(msg, "orientation") {
			t.Fatalf("FirstFit on an order against the orientation: recovered %q, want the orientation panic", msg)
		}
		ws.FirstFitAnyOrder(g, order, colors)
		if err := Verify(g, colors); err != nil {
			t.Fatalf("FirstFitAnyOrder: %v", err)
		}
	}
}

func sameColoring(t *testing.T, label string, got []int, kGot int, want []int, kWant int) {
	t.Helper()
	if kGot != kWant {
		t.Fatalf("%s: %d colors, oracle %d", label, kGot, kWant)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d colored %d, oracle %d", label, v, got[v], want[v])
		}
	}
}

// TestCSRMatchesSliceOracles is the coloring-parity property: FirstFit,
// GreedyByLength (including its length order) and DSatur on the CSR graph
// reproduce the retained slice-based implementations vertex for vertex on
// uniform, cluster, and annulus instances across every conflict-graph
// flavor.
func TestCSRMatchesSliceOracles(t *testing.T) {
	funcs := testFlavors()
	for name, links := range parityInstances(t) {
		for _, f := range funcs {
			g := buildGraph(t, links, f.fam, f.gamma)
			adj := adjacency(g)
			label := name + "/" + f.Name

			order := byLengthOrderOracle(links)
			gotOrder := ByLengthOrder(g)
			for i := range order {
				if order[i] != gotOrder[i] {
					t.Fatalf("%s: LengthOrder[%d]=%d, oracle %d", label, i, gotOrder[i], order[i])
				}
			}

			wc, wk := firstFitOracle(adj, order)
			gc, gk := GreedyByLength(g)
			sameColoring(t, label+"/greedy", gc, gk, wc, wk)

			idx := IndexOrder(g.N())
			wc, wk = firstFitOracle(adj, idx)
			gc = make([]int, g.N())
			gk = NewWorkspace().FirstFitAnyOrder(g, idx, gc)
			sameColoring(t, label+"/firstfit-index", gc, gk, wc, wk)

			wc, wk = dsaturOracle(adj)
			gc, gk = DSatur(g)
			sameColoring(t, label+"/dsatur", gc, gk, wc, wk)
		}
	}
}

// TestWorkspaceReuseAcrossGraphs: one Workspace serving graphs of different
// sizes and flavors back to back must not leak state between calls.
func TestWorkspaceReuseAcrossGraphs(t *testing.T) {
	ws := NewWorkspace()
	for name, links := range parityInstances(t) {
		g := buildGraph(t, links, conflict.PowerLawFamily(0.5), 2)
		adj := adjacency(g)
		colors := make([]int, g.N())

		k := ws.GreedyByLength(g, colors)
		wc, wk := firstFitOracle(adj, byLengthOrderOracle(links))
		sameColoring(t, name+"/ws-greedy", colors, k, wc, wk)

		k = ws.DSatur(g, colors)
		wc, wk = dsaturOracle(adj)
		sameColoring(t, name+"/ws-dsatur", colors, k, wc, wk)

		k = ws.JP(g, 42, colors)
		if err := Verify(g, colors); err != nil {
			t.Fatalf("%s: JP improper: %v", name, err)
		}
		if k != NumColors(colors) {
			t.Fatalf("%s: JP reported %d colors, palette says %d", name, k, NumColors(colors))
		}
	}
}

// TestFirstFitZeroAllocs is the hot-loop guard: once the Workspace buffers
// are warm, a FirstFit pass over a 20k-edge graph performs zero allocations
// — not "zero per vertex", zero total — and so do the colorings that
// rebuild both directions of every edge first.
func TestFirstFitZeroAllocs(t *testing.T) {
	links := testLinks(t, 2000, 9)
	g := buildGraph(t, links, conflict.PowerLawFamily(0.5), 2)
	ws := NewWorkspace()
	colors := make([]int, g.N())
	order := slices.Clone(ws.LengthOrder(g))
	ws.FirstFit(g, order, colors) // warm the scratch buffers
	if allocs := testing.AllocsPerRun(10, func() {
		ws.FirstFit(g, order, colors)
	}); allocs != 0 {
		t.Fatalf("FirstFit allocated %.0f times per run on warm buffers, want 0", allocs)
	}
	index := IndexOrder(g.N())
	ws.FirstFitAnyOrder(g, index, colors)
	if allocs := testing.AllocsPerRun(10, func() {
		ws.FirstFitAnyOrder(g, index, colors)
	}); allocs != 0 {
		t.Fatalf("FirstFitAnyOrder allocated %.0f times per run on warm buffers, want 0", allocs)
	}
	ws.GreedyByLength(g, colors)
	if allocs := testing.AllocsPerRun(10, func() {
		ws.GreedyByLength(g, colors)
	}); allocs != 0 {
		t.Fatalf("GreedyByLength allocated %.0f times per run on warm buffers, want 0", allocs)
	}
	ws.DSatur(g, colors)
	if allocs := testing.AllocsPerRun(10, func() {
		ws.DSatur(g, colors)
	}); allocs != 0 {
		t.Fatalf("DSatur allocated %.0f times per run on warm buffers, want 0", allocs)
	}
}

// TestJPProperAndDeterministic: JP yields a proper dense coloring of every
// conflict-graph flavor, identical across repeated runs and across
// GOMAXPROCS settings (the parallel rounds must not leak scheduling into
// the result), and different seeds may recolor but stay proper.
func TestJPProperAndDeterministic(t *testing.T) {
	links := testLinks(t, 400, 5)
	funcs := testFlavors()
	for _, f := range funcs {
		g := buildGraph(t, links, f.fam, f.gamma)
		colors, k := JP(g, 7)
		if err := Verify(g, colors); err != nil {
			t.Fatalf("%s: JP improper: %v", f.Name, err)
		}
		if k != NumColors(colors) {
			t.Fatalf("%s: JP reported %d colors, palette says %d", f.Name, k, NumColors(colors))
		}
		if k > g.MaxDegree()+1 {
			t.Fatalf("%s: JP used %d colors, exceeds MaxDegree+1 = %d", f.Name, k, g.MaxDegree()+1)
		}
		for c, class := range Classes(colors) {
			if len(class) == 0 {
				t.Fatalf("%s: color %d unused (palette not dense)", f.Name, c)
			}
		}

		prev := runtime.GOMAXPROCS(4)
		wide, wk := JP(g, 7)
		runtime.GOMAXPROCS(prev)
		if wk != k {
			t.Fatalf("%s: JP color count depends on GOMAXPROCS: %d vs %d", f.Name, wk, k)
		}
		for v := range colors {
			if colors[v] != wide[v] {
				t.Fatalf("%s: JP vertex %d depends on GOMAXPROCS: %d vs %d",
					f.Name, v, colors[v], wide[v])
			}
		}

		other, _ := JP(g, 8)
		if err := Verify(g, other); err != nil {
			t.Fatalf("%s: JP(seed=8) improper: %v", f.Name, err)
		}
	}
}

// BenchmarkDSaturDense times a warm-Workspace DSatur in the γ-escalation
// regime: the G_γ(16) graph of n=2000 uniform MST links, mean degree above
// 200, where every coloring raises hundreds of neighbor saturations.
func BenchmarkDSaturDense(b *testing.B) {
	links := testLinks(b, 2000, 55)
	g := buildGraph(b, links, conflict.GammaFamily(), 16)
	if d := g.AverageDegree(); d < 200 {
		b.Fatalf("mean degree %.1f, want >= 200", d)
	}
	ws := NewWorkspace()
	colors := make([]int, g.N())
	ws.DSatur(g, colors)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.DSatur(g, colors)
	}
	b.ReportMetric(float64(g.Edges()), "edges")
}
