// Quickstart: build the paper's 64GB machine, push some traffic through
// the memory controller, off-line the top memory blocks with GreenDIMM,
// and watch DRAM power drop as the matching sub-array groups enter the
// deep power-down state.
package main

import (
	"fmt"
	"log"

	"greendimm/internal/core"
	"greendimm/internal/dram"
	"greendimm/internal/hotplug"
	"greendimm/internal/kernel"
	"greendimm/internal/mc"
	"greendimm/internal/power"
	"greendimm/internal/sim"
)

func main() {
	org := dram.Org64GB()
	fmt.Println("machine:", org)

	eng := sim.NewEngine()
	mem, err := kernel.New(kernel.Config{
		TotalBytes: org.TotalBytes(),
		PageBytes:  1 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := mc.New(eng, mc.Config{
		Org: org, Timing: dram.DDR4_2133(), Interleaved: true, LowPower: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	hp, err := hotplug.New(mem, hotplug.Config{}) // 128MB blocks
	if err != nil {
		log.Fatal(err)
	}
	daemon, err := core.New(eng, mem, hp, ctrl, core.Config{
		Period: 100 * sim.Millisecond, MaxOfflinePerTick: 64,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A 2GB application footprint; everything else is idle capacity.
	if err := mem.Alloc(2<<30/mem.PageBytes(), true, 42); err != nil {
		log.Fatal(err)
	}

	// Some traffic to the footprint so the machine is not fully idle.
	g := sim.NewRNG(7)
	var tick func()
	tick = func() {
		n := mem.OwnerPageCount(42)
		pfn := mem.OwnerPage(42, g.Int63n(n))
		pa := uint64(pfn) * uint64(mem.PageBytes())
		if err := ctrl.Submit(pa, g.Bool(0.3), nil); err != nil {
			log.Fatal(err)
		}
		if eng.Now() < 2*sim.Second {
			eng.After(400*sim.Nanosecond, tick)
		}
	}
	eng.At(0, tick)

	daemon.Start()
	eng.RunUntil(2 * sim.Second)
	ctrl.Finalize()

	model, err := power.NewModel(org)
	if err != nil {
		log.Fatal(err)
	}
	b, err := model.FromActivity(ctrl.Activity())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("off-lined: %d blocks (%.1f GB), %d/%d sub-array groups in deep power-down\n",
		daemon.OfflinedBlocks(), float64(daemon.OfflinedBytes())/float64(1<<30),
		ctrl.GroupRegister().DownCount(), ctrl.GroupRegister().Groups())
	fmt.Printf("DRAM power: %.1f W (background %.1f, refresh %.1f, activity %.1f, DIMM static %.1f)\n",
		b.TotalW(), b.BackgroundW, b.RefreshW, b.ActPreW+b.RdWrW, b.DIMMStaticW)
	fmt.Printf("no management would burn %.1f W idle\n", model.IdleSystemDRAMW())
}
