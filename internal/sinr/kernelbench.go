package sinr

import (
	"math"
	"time"

	"aggrate/internal/geom"
)

// kernelBenchLinks builds a deterministic synthetic slot for kernel
// micro-measurement: m unit links scattered over an m^(1/2)-side square by a
// fixed-seed splitmix64 stream, so every caller times the same workload.
func kernelBenchLinks(m int) []geom.Link {
	links := make([]geom.Link, m)
	side := math.Sqrt(float64(m))
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
	for i := range links {
		sx, sy := next()*side, next()*side
		theta := next() * 2 * math.Pi
		links[i] = geom.Link{
			S: geom.Point{X: sx, Y: sy},
			R: geom.Point{X: sx + math.Cos(theta), Y: sy + math.Sin(theta)},
		}
	}
	return links
}

// MeasureKernelNsPerPair times the symmetric tiled near-field kernel — the
// unordered-pair enumeration behind exactAll, the engine's hottest inner
// loop — on a synthetic m-sender slot, and returns nanoseconds per ordered
// pairwise term (the m·(m−1) terms a naive evaluation would compute). The
// benchmark records it as sinr.kernel_ns_per_pair, which exposes a
// de-optimized kernel (a lost unroll, a reintroduced math.Pow)
// independently of slot-structure and pipeline effects.
func MeasureKernelNsPerPair(p Params, m, rounds int) float64 {
	if m < 2 || rounds < 1 {
		return 0
	}
	links := kernelBenchLinks(m)
	e := NewEngine(p, links)
	sc := NewEngineScratch()
	idx, ones := make([]int, m), make([]float64, m)
	for k := range idx {
		idx[k], ones[k] = k, 1
	}
	if err := e.gather(sc, idx, ones); err != nil {
		return math.NaN()
	}
	var st EngineStats
	sink := 0.0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		sink += e.exactAll(sc, m, &st)
	}
	elapsed := time.Since(t0)
	if math.IsNaN(sink) { // keep the accumulation observable
		return math.NaN()
	}
	pairs := float64(rounds) * float64(m) * float64(m-1)
	return float64(elapsed.Nanoseconds()) / pairs
}
