package server

import (
	"strings"
	"testing"

	"greendimm/internal/core"
	"greendimm/internal/exp"
)

func mustHash(t *testing.T, spec JobSpec) string {
	t.Helper()
	norm, err := spec.normalized()
	if err != nil {
		t.Fatalf("normalize %+v: %v", spec, err)
	}
	h, err := norm.hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSpecHashCanonicalization(t *testing.T) {
	// Omitted defaults and explicitly spelled defaults are the same job.
	implicit := JobSpec{Kind: KindVMServer, VMServer: &exp.VMScenario{GreenDIMM: true}}
	explicit := JobSpec{Kind: KindVMServer, VMServer: &exp.VMScenario{
		GreenDIMM: true, CapacityGB: 256, Hours: 24, BlockMB: 1024,
		PeriodMS: 1000, MaxOfflinePerTick: 8,
		Policy: core.PolicySpec{Name: core.PolicyFreeFirst},
	}}
	if mustHash(t, implicit) != mustHash(t, explicit) {
		t.Error("defaulted and explicit specs hash differently")
	}
	// The execution timeout is not part of the simulated world.
	timed := implicit
	timed.TimeoutSec = 30
	if mustHash(t, implicit) != mustHash(t, timed) {
		t.Error("timeout_sec changed the cache key")
	}
	// Neither is the sweep parallelism: results are byte-identical at
	// every fan-out, so specs differing only here share a cache entry.
	par := implicit
	par.Parallelism = 8
	if mustHash(t, implicit) != mustHash(t, par) {
		t.Error("parallelism changed the cache key")
	}
	// Nor the accepted-and-ignored engine_shards field.
	sharded := implicit
	sharded.EngineShards = 4
	if mustHash(t, implicit) != mustHash(t, sharded) {
		t.Error("engine_shards changed the cache key")
	}
	// Anything that changes the simulation changes the key.
	other := JobSpec{Kind: KindVMServer, VMServer: &exp.VMScenario{GreenDIMM: true, Seed: 7}}
	if mustHash(t, implicit) == mustHash(t, other) {
		t.Error("different seeds hash identically")
	}
}

func TestSpecExperimentDefaultsAndValidation(t *testing.T) {
	h1 := mustHash(t, JobSpec{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "hwcost"}})
	h2 := mustHash(t, JobSpec{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "hwcost", Seed: 1}})
	if h1 != h2 {
		t.Error("seed 0 should normalize to the CLI default seed 1")
	}

	bad := []JobSpec{
		{},
		{Kind: "nope"},
		{Kind: KindExperiment},
		{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "fig99"}},
		{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "fig1"}, VMServer: &exp.VMScenario{}},
		{Kind: KindVMServer},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{Hours: -1}},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{CapacityGB: 100}},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{BlockMB: 999}},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{Policy: core.PolicySpec{Name: "bogus"}}},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{Policy: core.PolicySpec{
			Name: core.PolicyAgeThreshold, Params: map[string]float64{"nope": 1},
		}}},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{Policy: core.PolicySpec{
			Name: core.PolicyHeatTier, Params: map[string]float64{"tiers": 1000},
		}}},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{Policy: core.PolicySpec{
			Name: core.PolicyFreeFirst, Tracker: core.TrackerIdleAge,
		}}},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{OffThr: 0.04}},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{}, TimeoutSec: -1},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{}, Parallelism: -1},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{}, Parallelism: MaxJobParallelism + 1},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{}, EngineShards: -1},
		{Kind: KindVMServer, VMServer: &exp.VMScenario{}, EngineShards: MaxEngineShards + 1},
	}
	for _, spec := range bad {
		if _, err := spec.normalized(); err == nil {
			t.Errorf("spec %+v validated", spec)
		}
	}
}

func TestSpecHashIsHex(t *testing.T) {
	h := mustHash(t, JobSpec{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "fig1", Quick: true}})
	if len(h) != 64 || strings.Trim(h, "0123456789abcdef") != "" {
		t.Errorf("hash %q is not 64 hex chars", h)
	}
}
