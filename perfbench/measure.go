package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// rng is SplitMix64: every input the benchmark generates is a pure
// function of the seed, one stream per client and purpose.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ (stream+1)*0xd1b54a32d192ed03}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a value in [0, n) (multiply-high; the bias is far below
// anything the checks could see, and the oracle uses the same draw).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// payload is the value stored under key: derived from the key, so every
// read can be checked without a shadow copy of the table.
func payload(key uint64) uint64 { return bits.RotateLeft64(key, 29) ^ 0x5851f42d4c957f2d }

// percentile returns the nearest-rank q-quantile of samples (sorted in
// place).
func percentile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	return float64(samples[max(i, 0)])
}

// median returns the median of xs (sorted in place), 0 for none.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// The tail percentile each workload's gated read_tail_us reports: the
// highest that keeps at least ten samples beyond it at the workload's
// sample count and reads the same from run to run. On point-churn the
// top percent of reads are those that met a migration start or parked on
// a writer's lock, and how many a run meets varies; its p99 moves by a
// third between runs where its p95 moves by a few percent, so it is
// printed but not gated.
const (
	pointTail = 0.99
	churnTail = 0.95
	queryTail = 0.90
)

// windowed splits a timed phase into n one-second windows and returns
// the medians over the windows of the calls per second and of the p50
// and q-quantile call latency. Medians over windows keep a burst of
// outside load, or a collection cycle, from moving a run's figures. A call counts towards each window in
// proportion to the share of its duration inside it, so long calls do
// not make the rate move in whole steps; its latency counts in the
// window it ended in.
func windowed(ends, lats []int64, n int, q float64) (perSec, p50, tail float64) {
	const sec = int64(time.Second)
	calls := make([]float64, n)
	byWindow := make([][]int64, n)
	for i, e := range ends {
		if w := int(e / sec); w >= 0 && w < n {
			byWindow[w] = append(byWindow[w], lats[i])
		}
		start := e - lats[i]
		for w := max(start/sec, 0); w <= e/sec && w < int64(n); w++ {
			in := min(e, (w+1)*sec) - max(start, w*sec)
			calls[w] += float64(in) / float64(max(lats[i], 1))
		}
	}
	var p50s, tails []float64
	for _, w := range byWindow {
		if len(w) > 0 {
			p50s = append(p50s, percentile(w, 0.5))
			tails = append(tails, percentile(w, q))
		}
	}
	return median(calls), median(p50s), median(tails)
}

// runClients runs fn(c) on n goroutines and returns once all have
// finished.
func runClients(n int, fn func(c int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for c := 0; c < n; c++ {
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// settle collects garbage and returns freed memory to the OS between
// phases, so one phase's tables neither inflate the next phase's peak
// nor leave a collection to land inside its timing.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// totalAlloc returns the cumulative bytes the Go heap has allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timeReps runs fn reps times and returns the median wall time in
// nanoseconds.
func timeReps(reps int, fn func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds()))
	}
	return median(ts), nil
}
