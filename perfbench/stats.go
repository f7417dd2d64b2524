package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
)

// cpuSeconds is the CPU time, user plus system, that every thread of this
// process has used so far. Unlike a wall time it leaves out the time the
// host of a virtual machine ran something else on the process's vCPUs.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a p90 at least 100, a p50 at least 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses a percentile with fewer than minTail samples beyond it, so a run
// too short to support the percentile it names fails instead of reporting
// the run's maximum under that name.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based; the epsilon absorbs q*n rounding up
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", q*100, n, beyond, minTail)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// median is the middle value of xs (the mean of the two middle values for
// an even count). Used for per-run medians of a handful of expensive
// operations, where no tail percentile is claimed.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method (Python's statistics.quantiles default), so the
// spreads printed here match the ones the acceptance rule computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// Position p*(n+1), 1-based, clamped to the sample range.
		pos := p * float64(n+1)
		if pos <= 1 {
			return s[0]
		}
		if pos >= float64(n) {
			return s[n-1]
		}
		i := int(pos)
		frac := pos - float64(i)
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return at(0.25), median(s), at(0.75)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
