package workload

import (
	"testing"

	"greendimm/internal/dram"
	"greendimm/internal/kernel"
	"greendimm/internal/mc"
	"greendimm/internal/sim"
)

// TestCoreSteadyStateAllocs drives a Core against a real controller and
// locks in the alloc-free issue path: bound handlers, SubmitCall with
// the Core as its own Completer, pooled requests and events. Steady
// state (pool, free list, sample buffers warm) must allocate nothing.
func TestCoreSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine()
	mem, err := kernel.New(kernel.Config{TotalBytes: 1 << 30, PageBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := mc.New(eng, mc.Config{
		Org: dram.Org64GB(), Timing: dram.DDR4_2133(), Interleaved: true, LowPower: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := ByName("429.mcf")
	if !ok {
		t.Fatal("unknown profile")
	}
	prof.FootprintMB = 64
	core, err := NewCore(eng, mem, ctrl, CoreConfig{
		Profile: prof, Owner: 10, Accesses: 1 << 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	core.Start()
	// Warm past the self-refresh timer horizon (see internal/mc's alloc
	// test) so the engine's event population has plateaued.
	eng.RunUntil(200 * sim.Microsecond)

	deadline := eng.Now()
	avg := testing.AllocsPerRun(200, func() {
		deadline += sim.Microsecond
		eng.RunUntil(deadline)
	})
	if avg != 0 {
		t.Fatalf("steady-state core run allocates %.2f allocs per us of sim time, want 0", avg)
	}
	if core.completed == 0 {
		t.Fatal("core made no progress")
	}
}

// TestServiceSteadyStateAllocs does the same for the open-loop Service:
// Poisson arrivals, dependent access chains, bounded latency samples.
func TestServiceSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine()
	mem, err := kernel.New(kernel.Config{TotalBytes: 1 << 30, PageBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := mc.New(eng, mc.Config{
		Org: dram.Org64GB(), Timing: dram.DDR4_2133(), Interleaved: true, LowPower: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := ByName("data-caching")
	if !ok {
		t.Fatal("unknown profile")
	}
	prof.FootprintMB = 64
	svc, err := NewService(eng, mem, ctrl, ServiceConfig{
		Profile:       prof,
		Owner:         11,
		OpsPerSec:     200000,
		AccessesPerOp: 8,
		ComputePerOp:  2 * sim.Microsecond,
		Seed:          7,
		SampleCap:     4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	eng.RunUntil(500 * sim.Microsecond) // warm: past SR horizon, sample cap reached

	deadline := eng.Now()
	avg := testing.AllocsPerRun(200, func() {
		deadline += 2 * sim.Microsecond
		eng.RunUntil(deadline)
	})
	if avg != 0 {
		t.Fatalf("steady-state service run allocates %.2f allocs per 2us of sim time, want 0", avg)
	}
	if svc.served == 0 {
		t.Fatal("service served no ops")
	}
}
