package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a reported percentile needs at least
// this many samples above it, or the tail it claims to describe is a
// handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples and
// whether it is supported by the percentile rule. samples is sorted in place.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return samples[rank], n-1-rank >= minBeyond
}

// minSamplesFor is the smallest sample count that supports percentile p.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minBeyond {
			return n
		}
	}
}

// timing is one latency distribution: samples in milliseconds.
type timing struct {
	name string
	ms   []float64
}

func (t *timing) add(d time.Duration) { t.ms = append(t.ms, float64(d)/1e6) }

// quantiles reports the median, p95 and p99, and an error when the p99
// lacks the samples the percentile rule demands.
func (t *timing) quantiles() (p50, p95, p99 float64, err error) {
	s := append([]float64(nil), t.ms...)
	p50, _ = percentile(s, 0.50)
	p95, _ = percentile(s, 0.95)
	p99, ok := percentile(s, 0.99)
	if !ok {
		err = fmt.Errorf("%s: %d samples cannot support a p99 (need %d)", t.name, len(s), minSamplesFor(0.99))
	}
	return p50, p95, p99, err
}

// checkpoint is one point of an open-loop due schedule: by dueNS (ns since
// the schedule started) need events had been offered.
type checkpoint struct {
	dueNS int64
	need  uint64
}

// admitPoint is one observation of the root's cumulative admitted-event
// count; a timeline is ordered by tNS with non-decreasing count.
type admitPoint struct {
	tNS   int64
	count uint64
}

// lagResult is the freshness outcome of one schedule.
type lagResult struct {
	lagMS  []float64 // one per checkpoint, misses included at their censored lag
	misses int       // checkpoints the timeline never covered
}

// computeLags measures, for every checkpoint, how long after its due time
// the admitted count first covered every event due by then. A checkpoint
// the timeline never covers is a miss; its lag is censored at endNS, the
// end of observation, so a miss always reads at least as late as any hit.
// Both slices must be sorted (checkpoints by dueNS and need, timeline by
// tNS with non-decreasing count).
func computeLags(cps []checkpoint, timeline []admitPoint, endNS int64) lagResult {
	var r lagResult
	j := 0
	for _, cp := range cps {
		for j < len(timeline) && timeline[j].count < cp.need {
			j++
		}
		at := endNS
		if j == len(timeline) {
			r.misses++
		} else {
			at = timeline[j].tNS
		}
		lag := at - cp.dueNS
		if lag < 0 {
			lag = 0
		}
		r.lagMS = append(r.lagMS, float64(lag)/1e6)
	}
	return r
}

func median(v []float64) float64 {
	m, _ := percentile(append([]float64(nil), v...), 0.5)
	return m
}
