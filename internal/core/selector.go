package core

import "greendimm/internal/sim"

// selector is the assembled block-selection pipeline: the normalized
// spec, the built policy and tracker, and the scratch state the daemon's
// hot path reuses tick over tick (the per-pass attempted set and the
// per-decision view) so selection stays allocation-free.
type selector struct {
	spec    PolicySpec
	policy  Policy
	tracker Tracker

	view       SelectView
	attempted  []bool
	offlinedAt []sim.Time
}

// newSelector validates spec and builds the pipeline for a machine with
// the given hotplug block count. start seeds tracker idle ages.
func newSelector(spec PolicySpec, blocks int, start sim.Time) (*selector, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	pd, ok := policyDefByName(norm.Name)
	if !ok { // Normalized() already vetted the name
		panic("core: normalized spec names unregistered policy " + norm.Name)
	}
	s := &selector{
		spec:       norm,
		policy:     pd.build(norm),
		attempted:  make([]bool, blocks),
		offlinedAt: make([]sim.Time, blocks),
	}
	if norm.Tracker != "" {
		td, ok := trackerDefByName(norm.Tracker)
		if !ok {
			panic("core: normalized spec names unregistered tracker " + norm.Tracker)
		}
		s.tracker = td.build(norm, blocks, start)
	}
	return s, nil
}

// noteOffline records a successful off-lining for hysteresis-style vetoes.
func (s *selector) noteOffline(b int, now sim.Time) {
	s.offlinedAt[b] = now
}
