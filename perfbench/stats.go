package main

import (
	"sort"
	"syscall"
	"time"
)

// samples is a set of op durations. Percentiles are exact nearest-rank
// values over the sorted samples, never interpolated between them or
// read from histogram buckets.
type samples []time.Duration

// percentile returns the nearest-rank p-th percentile (0 < p <= 100):
// the smallest sample with at least p percent of the samples at or
// below it. ok is false when there are no samples.
func (s samples) percentile(p int) (d time.Duration, ok bool) {
	if len(s) == 0 || p <= 0 || p > 100 {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rank(p, len(s))-1], true
}

// rank is the 1-based nearest rank ceil(p/100 * n), in integer
// arithmetic so that no rounding moves a boundary.
func rank(p, n int) int {
	return (p*n + 99) / 100
}

// beyond counts the samples strictly above the p-th percentile's rank.
// A percentile is reported only when at least ten samples lie beyond
// it, so that it describes a tail rather than one slow op.
func beyond(p, n int) int {
	if n == 0 {
		return 0
	}
	return n - rank(p, n)
}

// median is the nearest-rank 50th percentile in milliseconds (0 when
// there are no samples).
func (s samples) medianMs() float64 {
	d, _ := s.percentile(50)
	return ms(d)
}

// min is the smallest sample (0 when there are none).
func (s samples) min() time.Duration {
	var m time.Duration
	for i, d := range s {
		if i == 0 || d < m {
			m = d
		}
	}
	return m
}

// opTime is the time of one op's timed region: wall clock, and the CPU
// time the process used meanwhile (all threads, user and system).
type opTime struct {
	wall, cpu time.Duration
}

// clock is a running measurement of an op's timed region.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() clock { return clock{wall: time.Now(), cpu: cpuTime()} }

func (c clock) stop() opTime {
	return opTime{wall: time.Since(c.wall), cpu: cpuTime() - c.cpu}
}

// cpuTime is the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
