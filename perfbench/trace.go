package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"greendimm/internal/obs"
)

// span is one timed call at a layer boundary the benchmark crosses.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 for a root
	ID     string `json:"id"`     // the run or job the span belongs to
}

// callStats aggregates every call of one span name. A layer's self time
// is Total minus Child, the part of its calls that nested calls cover.
type callStats struct {
	Calls int64
	Total time.Duration
	Child time.Duration
}

func (c callStats) self() time.Duration { return c.Total - c.Child }

// tracer records the benchmark's own spans around calls into each
// layer's exported functions. Calls made millions of times per run (a
// memory request, a completion) are kept only in the per-name
// aggregates; coarser calls are also kept as spans. It is used from one
// goroutine at a time: the replicas it instruments are single-threaded
// simulations.
type tracer struct {
	epoch time.Time
	spans []span
	open  []openCall
	calls map[string]*callStats
}

type openCall struct {
	name  string
	start time.Time
	span  int // index into spans, -1 when not kept
	child time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), calls: map[string]*callStats{}}
}

// begin opens a call; keep also records it as a span under id.
func (t *tracer) begin(name, id string, keep bool) {
	c := openCall{name: name, start: time.Now(), span: -1}
	if keep {
		parent := -1
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i].span >= 0 {
				parent = t.open[i].span
				break
			}
		}
		c.span = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Start: int64(c.start.Sub(t.epoch)), Parent: parent, ID: id})
	}
	t.open = append(t.open, c)
}

// end closes the innermost open call and returns its duration.
func (t *tracer) end() time.Duration {
	c := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	now := time.Now()
	d := now.Sub(c.start)
	cs := t.calls[c.name]
	if cs == nil {
		cs = &callStats{}
		t.calls[c.name] = cs
	}
	cs.Calls++
	cs.Total += d
	cs.Child += c.child
	if len(t.open) > 0 {
		t.open[len(t.open)-1].child += d
	}
	if c.span >= 0 {
		t.spans[c.span].End = int64(now.Sub(t.epoch))
	}
	return d
}

// stats returns a name's aggregate (zero if never called).
func (t *tracer) stats(name string) callStats {
	if cs := t.calls[name]; cs != nil {
		return *cs
	}
	return callStats{}
}

// addView appends an obs trace's spans (the runner's per-cell spans) as
// children of parent.
func (t *tracer) addView(v obs.TraceView, parent int, id string) {
	off := int64(v.Epoch.Sub(t.epoch))
	for _, s := range v.Spans {
		start := off + s.StartNs
		t.spans = append(t.spans, span{Name: s.Name, Start: start, End: start + s.DurNs, Parent: parent, ID: id})
	}
}

// addSpan appends a finished span and returns its index.
func (t *tracer) addSpan(name, id string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, ID: id})
	return len(t.spans) - 1
}

// perCall returns a name's mean self time per call in the given unit.
func (t *tracer) perCall(name string, unit time.Duration) float64 {
	cs := t.stats(name)
	if cs.Calls == 0 {
		return 0
	}
	return float64(cs.self()) / float64(cs.Calls) / float64(unit)
}

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// profiled runs fn under the CPU profiler and adds the per-layer CPU
// shares, with their sample base, to res.
func profiled(res *result, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("starting the CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	byLayer, total, err := cpuShares(buf.Bytes())
	if err != nil {
		return err
	}
	res.set("profile.samples", float64(total), "count")
	for _, l := range profileLayers {
		res.set(l+".cpu_share", ratio(float64(byLayer[l]), float64(total)), "fraction")
	}
	return nil
}

// writeTrace writes the run's spans and metrics to the output directory
// when the run ends.
func writeTrace(cfg config, t *tracer, res *result) error {
	b, err := json.Marshal(struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Metrics  map[string]metric     `json:"metrics"`
		Calls    map[string]*callStats `json:"calls"`
		Spans    []span                `json:"spans"`
	}{cfg.workload, cfg.seed, res.Metrics, t.calls, t.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	return os.WriteFile(path, b, 0o644)
}
