package core

import (
	"greendimm/internal/hotplug"
	"greendimm/internal/sim"
)

// SelectView is the world a Policy sees for one decision: the eligible
// block index range [First, Last), the blocks already attempted this
// tick (Attempted[b], one entry per block), hotplug state, the daemon
// RNG, the configured tracker (nil for the trackerless paper policies),
// and the per-block off-lining timestamps the selector maintains. The
// daemon reuses one view across calls, so policies must not retain it.
type SelectView struct {
	First, Last int
	Attempted   []bool
	HP          *hotplug.Manager
	RNG         *sim.RNG
	Tracker     Tracker
	Now         sim.Time
	// OfflinedAt[b] is when block b last went offline (zero: never).
	OfflinedAt []sim.Time
}

// onlineFree reports an online, unattempted, fully-free block — the
// victim precondition shared by most policies.
func (v *SelectView) onlineFree(i int) bool {
	return v.HP.State(i) == hotplug.BlockOnline && !v.Attempted[i] && v.HP.FullyFree(i)
}

// online reports an online, unattempted block (migration allowed).
func (v *SelectView) online(i int) bool {
	return v.HP.State(i) == hotplug.BlockOnline && !v.Attempted[i]
}

// Policy is the decision stage of the block-selection pipeline: it ranks
// off-lining victims and vetoes on-linings. Implementations must be
// deterministic functions of the view (plus the view's RNG, consumed in a
// fixed order) and must not allocate on the pick path — selection runs
// inside the daemon tick, which holds a 0 allocs/op contract.
type Policy interface {
	Name() string
	// PickVictim returns the block to off-line next, or -1.
	PickVictim(v *SelectView) int
	// KeepOffline reports whether the policy vetoes on-lining block b.
	// The daemon overrides a unanimous veto under memory pressure by
	// taking the newest off-lined block anyway.
	KeepOffline(v *SelectView, b int) bool
}

// policyDef binds a policy's schema to its constructor. The spec passed
// to build is normalized: every param present, every value in range.
type policyDef struct {
	info  PolicyInfo
	build func(spec PolicySpec) Policy
}

var policyDefs = []policyDef{
	{
		info: PolicyInfo{
			Name: PolicyFreeFirst,
			Help: "paper §5.2 production policy: highest-addressed fully-free block first",
		},
		build: func(PolicySpec) Policy { return freeFirst{} },
	},
	{
		info: PolicyInfo{
			Name: PolicyRemovableFirst,
			Help: "paper §5.2: uniform pick among removable blocks, else any online block (migrating)",
		},
		build: func(PolicySpec) Policy { return &removableFirst{} },
	},
	{
		info: PolicyInfo{
			Name: PolicyRandom,
			Help: "paper Fig. 8 baseline: uniform pick among online blocks",
		},
		build: func(PolicySpec) Policy { return &randomPick{} },
	},
	{
		info: PolicyInfo{
			Name:           PolicyAgeThreshold,
			Help:           "off-line the fully-free block idle longest, once idle at least min_idle_s",
			DefaultTracker: TrackerIdleAge,
			Params: []ParamSpec{{
				Name: "min_idle_s", Default: 5, Min: 0, Max: 1e6, Unit: "s",
				Help: "minimum idle age before a block becomes a victim",
			}},
		},
		build: func(spec PolicySpec) Policy {
			return &ageThreshold{minIdle: sim.FromSeconds(spec.param("min_idle_s"))}
		},
	},
	{
		info: PolicyInfo{
			Name:           PolicyHeatTier,
			Help:           "bucket fully-free blocks into heat tiers; off-line the coldest block in the bottom tier",
			DefaultTracker: TrackerAccessCount,
			Params: []ParamSpec{{
				Name: "tiers", Default: 4, Min: 2, Max: 64,
				Help: "number of heat tiers; only blocks under max_heat/tiers are victims",
			}},
		},
		build: func(spec PolicySpec) Policy {
			return &heatTier{tiers: spec.param("tiers")}
		},
	},
	{
		info: PolicyInfo{
			Name:           PolicyHysteresis,
			Help:           "free-first victims, but veto on-lining a block off-lined less than hold_s ago",
			DefaultTracker: TrackerIdleAge,
			Params: []ParamSpec{{
				Name: "hold_s", Default: 10, Min: 0, Max: 1e6, Unit: "s",
				Help: "minimum time a block stays off-lined before it may come back",
			}},
		},
		build: func(spec PolicySpec) Policy {
			return &hysteresis{hold: sim.FromSeconds(spec.param("hold_s"))}
		},
	},
	{
		info: PolicyInfo{
			Name:           PolicyProactive,
			Help:           "off-line the longest-idle block regardless of use, migrating residents (min_idle_s gate)",
			DefaultTracker: TrackerIdleAge,
			Params: []ParamSpec{{
				Name: "min_idle_s", Default: 2, Min: 0, Max: 1e6, Unit: "s",
				Help: "minimum idle age before an in-use block is migrated away",
			}},
		},
		build: func(spec PolicySpec) Policy {
			return &proactiveOffline{minIdle: sim.FromSeconds(spec.param("min_idle_s"))}
		},
	},
}

func policyDefByName(name string) (policyDef, bool) {
	for _, d := range policyDefs {
		if d.info.Name == name {
			return d, true
		}
	}
	return policyDef{}, false
}

// freeFirst re-implements the seed enum's SelectFreeFirst scan exactly:
// highest-addressed fully-free block, no RNG consumed.
type freeFirst struct{}

func (freeFirst) Name() string { return PolicyFreeFirst }

func (freeFirst) PickVictim(v *SelectView) int {
	// Highest-addressed fully-free block: free memory pools at high
	// addresses, and off-lining top-down completes whole sub-array
	// groups fastest.
	for i := v.Last - 1; i >= v.First; i-- {
		if v.onlineFree(i) {
			return i
		}
	}
	return -1
}

func (freeFirst) KeepOffline(*SelectView, int) bool { return false }

// randomPick re-implements SelectRandom: build the online-candidates list
// in index order, then consume exactly one RNG draw. The scratch slice is
// reused so picks stay allocation-free after warm-up.
type randomPick struct {
	scratch []int
}

func (*randomPick) Name() string { return PolicyRandom }

func (p *randomPick) PickVictim(v *SelectView) int {
	candidates := p.scratch[:0]
	for i := v.First; i < v.Last; i++ {
		if v.online(i) {
			candidates = append(candidates, i)
		}
	}
	p.scratch = candidates
	if len(candidates) == 0 {
		return -1
	}
	return candidates[v.RNG.Intn(len(candidates))]
}

func (*randomPick) KeepOffline(*SelectView, int) bool { return false }

// removableFirst re-implements SelectRemovableFirst: uniform among
// removable blocks when any exist (one RNG draw), else uniform among the
// rest (one RNG draw) — the same draw sequence as the seed enum.
type removableFirst struct {
	removable, rest []int
}

func (*removableFirst) Name() string { return PolicyRemovableFirst }

func (p *removableFirst) PickVictim(v *SelectView) int {
	removable, rest := p.removable[:0], p.rest[:0]
	for i := v.First; i < v.Last; i++ {
		if !v.online(i) {
			continue
		}
		if v.HP.Removable(i) {
			removable = append(removable, i)
		} else {
			rest = append(rest, i)
		}
	}
	p.removable, p.rest = removable, rest
	if len(removable) > 0 {
		return removable[v.RNG.Intn(len(removable))]
	}
	if len(rest) > 0 {
		return rest[v.RNG.Intn(len(rest))]
	}
	return -1
}

func (*removableFirst) KeepOffline(*SelectView, int) bool { return false }

// ageThreshold picks the fully-free block with the greatest idle age, once
// that age clears min_idle_s. Ties break to the highest index (the scan is
// top-down and the comparison strict), matching free-first's address bias.
type ageThreshold struct {
	minIdle sim.Time
}

func (*ageThreshold) Name() string { return PolicyAgeThreshold }

func (p *ageThreshold) PickVictim(v *SelectView) int {
	best := -1
	var bestAge sim.Time
	for i := v.Last - 1; i >= v.First; i-- {
		if !v.onlineFree(i) {
			continue
		}
		age := v.Tracker.IdleAge(i, v.Now)
		if age < p.minIdle {
			continue
		}
		if best < 0 || age > bestAge {
			best, bestAge = i, age
		}
	}
	return best
}

func (*ageThreshold) KeepOffline(*SelectView, int) bool { return false }

// heatTier buckets fully-free blocks by tracker heat into `tiers` equal
// bands and only victimizes the bottom band, coldest block first. Ties
// break to the highest index.
type heatTier struct {
	tiers float64
}

func (*heatTier) Name() string { return PolicyHeatTier }

func (p *heatTier) PickVictim(v *SelectView) int {
	maxHeat, any := 0.0, false
	for i := v.First; i < v.Last; i++ {
		if !v.onlineFree(i) {
			continue
		}
		any = true
		if h := v.Tracker.Heat(i, v.Now); h > maxHeat {
			maxHeat = h
		}
	}
	if !any {
		return -1
	}
	cut := maxHeat / p.tiers
	best, bestHeat := -1, 0.0
	for i := v.Last - 1; i >= v.First; i-- {
		if !v.onlineFree(i) {
			continue
		}
		h := v.Tracker.Heat(i, v.Now)
		if h > cut {
			continue
		}
		if best < 0 || h < bestHeat {
			best, bestHeat = i, h
		}
	}
	return best
}

func (*heatTier) KeepOffline(*SelectView, int) bool { return false }

// hysteresis picks free-first victims but holds off-lined blocks down for
// hold_s: churny footprints stop bouncing the same block on and off every
// few ticks (Table 2's on/off event counts).
type hysteresis struct {
	hold sim.Time
}

func (*hysteresis) Name() string { return PolicyHysteresis }

func (p *hysteresis) PickVictim(v *SelectView) int {
	return freeFirst{}.PickVictim(v)
}

func (p *hysteresis) KeepOffline(v *SelectView, b int) bool {
	return v.Now-v.OfflinedAt[b] < p.hold
}

// proactiveOffline victimizes the longest-idle block even when it still
// holds pages — the migration cost is paid early, while the block is
// cold, instead of never (free-first) or randomly (random). Ties break to
// fewer used pages, then the highest index.
type proactiveOffline struct {
	minIdle sim.Time
}

func (*proactiveOffline) Name() string { return PolicyProactive }

func (p *proactiveOffline) PickVictim(v *SelectView) int {
	best := -1
	var bestAge sim.Time
	var bestUsed int64
	for i := v.Last - 1; i >= v.First; i-- {
		if !v.online(i) {
			continue
		}
		age := v.Tracker.IdleAge(i, v.Now)
		if age < p.minIdle {
			continue
		}
		used := v.HP.UsedPages(i)
		if best < 0 || age > bestAge || (age == bestAge && used < bestUsed) {
			best, bestAge, bestUsed = i, age, used
		}
	}
	return best
}

func (*proactiveOffline) KeepOffline(*SelectView, int) bool { return false }
