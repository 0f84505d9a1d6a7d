package main

import (
	"math"
	"sort"
	"time"
)

// sample is one metric's measurements within a run. The reported value is
// the median; n and the quartiles ride along so a reader (and -compare) can
// tell a shift from noise.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between order statistics (the "inclusive"
// method: q=0 is the minimum, q=1 the maximum).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return quantile(s.sorted(), 0.5) }

func (s sample) quartiles() (q1, q3 float64) {
	srt := s.sorted()
	return quantile(srt, 0.25), quantile(srt, 0.75)
}

// tailPercentile picks the highest whole percentile that still has at least
// ten samples beyond it — the tail a run of n operations can actually
// resolve — and returns that percentile with its value. With fewer than 20
// samples no percentile above the median qualifies and ok is false.
func tailPercentile(s sample) (pct int, value float64, ok bool) {
	n := len(s)
	if n < 20 {
		return 0, 0, false
	}
	pct = int(math.Floor(100 * float64(n-10) / float64(n)))
	if pct > 99 {
		pct = 99
	}
	srt := s.sorted()
	// Nearest-rank: the smallest value with at least pct% of samples at or
	// below it, which leaves n - rank >= 10 samples beyond.
	rank := int(math.Ceil(float64(pct) / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return pct, srt[rank-1], true
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// perOp divides a duration over n operations, in nanoseconds.
func perOp(d time.Duration, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// timeIt runs f once and returns its wall time.
func timeIt(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// medianOf runs f reps times and returns the median wall time: the layer
// probes are short, and a single preempted repetition must not set the
// number.
func medianOf(reps int, f func()) time.Duration {
	var s sample
	for i := 0; i < reps; i++ {
		s = append(s, float64(timeIt(f)))
	}
	return time.Duration(s.median())
}
