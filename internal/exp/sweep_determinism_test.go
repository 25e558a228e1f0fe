package exp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"greendimm/internal/sim"
	"greendimm/internal/sweep"
)

// renderExperiment runs a registry experiment and renders everything it
// returns (tables and series) to one string, the way the CLI and daemon
// do, so comparisons see every byte a client would.
func renderExperiment(t *testing.T, id string, opts Options) string {
	t.Helper()
	fn := Registry()[id]
	if fn == nil {
		t.Fatalf("unknown experiment %q", id)
	}
	tables, series, err := fn(opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var b strings.Builder
	for _, tab := range tables {
		b.WriteString(tab.String())
		b.WriteByte('\n')
	}
	for _, s := range series {
		fmt.Fprintf(&b, "  %-10s %s\n", s.Name, s.Sparkline(64))
	}
	return b.String()
}

// TestSweepDeterminism is the parallel-sweep acceptance check: for a
// spread of converted runners, a run at Parallelism 8 must render
// byte-identical output to the serial walk at the same seed. In fig9 and
// tail, eight workers boot machines from the storage that other workers'
// cells release, so the race detector also sees that hand-off.
func TestSweepDeterminism(t *testing.T) {
	for _, id := range []string{"fig3", "fig9", "ramzzz", "swapthr", "tab3", "tail"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial := renderExperiment(t, id, Options{Quick: true, Seed: 1, Parallelism: 1})
			parallel := renderExperiment(t, id, Options{Quick: true, Seed: 1, Parallelism: 8})
			if serial != parallel {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, parallel)
			}
		})
	}
}

// TestSweepStopPropagation: a Stop predicate that fires immediately must
// abort a converted runner with sweep.ErrStopped before any cell runs.
func TestSweepStopPropagation(t *testing.T) {
	for _, par := range []int{1, 8} {
		opts := Options{Quick: true, Seed: 1, Parallelism: par,
			Hooks: Hooks{Stop: func() bool { return true }}}
		_, err := RunRAMZzz(opts)
		if !errors.Is(err, sweep.ErrStopped) {
			t.Errorf("Parallelism %d: err = %v, want sweep.ErrStopped", par, err)
		}
	}
}

// TestSweepObserveSerialized: under a parallel sweep, a caller's Observe
// hook must not need its own locking — sweepCells serializes the calls.
// The unsynchronized counter below is the assertion: `go test -race`
// (scripts/check.sh runs this file under it) flags any violation.
func TestSweepObserveSerialized(t *testing.T) {
	n := 0 // deliberately unsynchronized
	opts := Options{Quick: true, Seed: 1, Parallelism: 8,
		Hooks: Hooks{Observe: func(_ *sim.Engine) { n++ }}}
	if _, err := RunRAMZzz(opts); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("Observe saw %d engines, want 4 (one per cell)", n)
	}
}
