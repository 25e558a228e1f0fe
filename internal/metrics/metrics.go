// Package metrics provides the small bookkeeping primitives the simulator
// shares: time-weighted state-residency meters, latency distributions, and
// time-weighted averages. They are deliberately allocation-light; the
// controller updates them on every request.
package metrics

import (
	"fmt"
	"sort"

	"greendimm/internal/sim"
)

// Residency accumulates time spent in each of a small set of integer
// states. States must be in [0, n).
type Residency struct {
	totals []sim.Time
	state  int
	since  sim.Time
	final  bool
}

// NewResidency creates a meter over n states, starting in state initial at
// time start.
func NewResidency(n, initial int, start sim.Time) *Residency {
	if initial < 0 || initial >= n {
		panic(fmt.Sprintf("metrics: initial state %d out of [0,%d)", initial, n))
	}
	return &Residency{totals: make([]sim.Time, n), state: initial, since: start}
}

// State reports the current state.
func (r *Residency) State() int { return r.state }

// Transition moves to state s at time at, crediting the elapsed interval to
// the previous state. Transitions must be non-decreasing in time.
func (r *Residency) Transition(at sim.Time, s int) {
	if r.final {
		panic("metrics: transition after Finalize")
	}
	if at < r.since {
		panic(fmt.Sprintf("metrics: transition at %v before %v", at, r.since))
	}
	if s < 0 || s >= len(r.totals) {
		panic(fmt.Sprintf("metrics: state %d out of range %d", s, len(r.totals)))
	}
	r.totals[r.state] += at - r.since
	r.state = s
	r.since = at
}

// Finalize credits time up to at and freezes the meter.
func (r *Residency) Finalize(at sim.Time) {
	if r.final {
		return
	}
	r.Transition(at, r.state)
	r.final = true
}

// Total reports accumulated time in state s.
func (r *Residency) Total(s int) sim.Time { return r.totals[s] }

// Fraction reports the share of accumulated time spent in state s.
func (r *Residency) Fraction(s int) float64 {
	var sum sim.Time
	for _, t := range r.totals {
		sum += t
	}
	if sum == 0 {
		return 0
	}
	return float64(r.totals[s]) / float64(sum)
}

// WeightedValue integrates a piecewise-constant value over time — used for
// the time-averaged fraction of sub-array groups in deep power-down.
type WeightedValue struct {
	integral float64 // value x picoseconds
	value    float64
	since    sim.Time
	start    sim.Time
}

// NewWeightedValue starts integrating v at time start.
func NewWeightedValue(v float64, start sim.Time) *WeightedValue {
	return &WeightedValue{value: v, since: start, start: start}
}

// Set changes the value at time at.
func (w *WeightedValue) Set(at sim.Time, v float64) {
	if at < w.since {
		panic(fmt.Sprintf("metrics: weighted value update at %v before %v", at, w.since))
	}
	w.integral += w.value * float64(at-w.since)
	w.value = v
	w.since = at
}

// Value reports the current (instantaneous) value.
func (w *WeightedValue) Value() float64 { return w.value }

// Average reports the time-weighted average from start to at.
func (w *WeightedValue) Average(at sim.Time) float64 {
	if at <= w.start {
		return w.value
	}
	integral := w.integral + w.value*float64(at-w.since)
	return integral / float64(at-w.start)
}

// Distribution collects scalar samples and reports order statistics.
// Mean and N are exact (running sum/count) regardless of storage policy.
// By default every sample is retained; request-driven hot paths that
// record millions of points should call SetCap so percentile storage
// stays bounded — see SetCap for the decimation rule.
type Distribution struct {
	samples []float64
	sorted  bool
	n       int64
	sum     float64
	max     int   // retained-sample bound; 0 = retain everything
	stride  int64 // record every stride-th sample once bounded
	skip    int64 // samples left to drop before the next recorded one
}

// Reserve grows the sample buffer's capacity to at least n, so the
// following n Adds append without reallocating.
func (d *Distribution) Reserve(n int) {
	if cap(d.samples) >= n {
		return
	}
	s := make([]float64, len(d.samples), n)
	copy(s, d.samples)
	d.samples = s
}

// SetCap bounds retained samples at max and preallocates the buffer.
// Once the buffer fills, every second retained sample is dropped in
// place and the recording stride doubles, so a run of any length keeps
// a deterministic, roughly uniformly spaced subset of at most max
// samples for percentile queries. The subset depends only on the Add
// sequence, never on timing. Mean and N stay exact; Max becomes the
// largest retained sample. Call before recording; max <= 0 restores
// retain-everything.
func (d *Distribution) SetCap(max int) {
	d.max = max
	if max > 0 {
		d.Reserve(max)
		if d.stride == 0 {
			d.stride = 1
		}
	}
}

// Add records a sample.
func (d *Distribution) Add(v float64) {
	d.n++
	d.sum += v
	if d.max > 0 {
		if d.skip > 0 {
			d.skip--
			return
		}
		d.skip = d.stride - 1
	}
	d.samples = append(d.samples, v)
	d.sorted = false
	if d.max > 0 && len(d.samples) >= d.max {
		k := 0
		for i := 0; i < len(d.samples); i += 2 {
			d.samples[k] = d.samples[i]
			k++
		}
		d.samples = d.samples[:k]
		d.stride *= 2
		d.skip = d.stride - 1
	}
}

// MergeFrom folds another distribution into d: counts and sums add
// exactly (N and Mean stay exact over the union), and o's retained
// percentile samples are appended to d's. The result is deterministic in
// the merge call order — the controller merges its per-channel
// distributions in channel index order — and the merge ignores d's cap:
// a merged snapshot retains at most the sum of its inputs' retained
// samples. o is not modified.
func (d *Distribution) MergeFrom(o *Distribution) {
	d.n += o.n
	d.sum += o.sum
	if len(o.samples) > 0 {
		d.samples = append(d.samples, o.samples...)
		d.sorted = false
	}
}

// N reports the exact number of samples recorded.
func (d *Distribution) N() int { return int(d.n) }

// Mean reports the exact arithmetic mean, or 0 with no samples.
func (d *Distribution) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Percentile reports the p-th percentile (p in [0,100]) by
// nearest-rank, or 0 with no samples.
func (d *Distribution) Percentile(p float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[len(d.samples)-1]
	}
	rank := int(p/100*float64(len(d.samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(d.samples) {
		rank = len(d.samples) - 1
	}
	return d.samples[rank]
}

// Max reports the largest sample, or 0 with no samples.
func (d *Distribution) Max() float64 { return d.Percentile(100) }
