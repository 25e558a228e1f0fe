// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (the (d) deliverable). Each benchmark runs its experiment and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchtime=1x
//
// regenerates every result. Benchmarks default to the full experiment
// scale; set GREENDIMM_QUICK=1 to use the reduced Quick horizons.
//
// Absolute wall-power numbers depend on the calibrated power model (see
// EXPERIMENTS.md); the shapes — who wins, by what factor, where the
// crossovers sit — are the reproduction targets.
package greendimm

import (
	"os"
	"sync"
	"testing"

	"greendimm/internal/exp"
	"greendimm/internal/sweep"
)

// benchMemo is shared across every benchmark in the process, the way the
// CLI's -experiment all path shares one: experiments that run identical
// baseline cells (fig12/fig13's traced day, the block sweep's dynamics
// runs) compute them once. Result-neutral (see exp.Options.Memo), so the
// reported headline metrics are unchanged.
var benchMemo = sweep.NewMemo(0)

func benchOpts() exp.Options {
	return exp.Options{Quick: os.Getenv("GREENDIMM_QUICK") != "", Seed: 1, Memo: benchMemo}
}

// BenchmarkFig1MemoryUtilization regenerates Fig. 1: VM memory
// utilization over 24 hours, with and without KSM.
func BenchmarkFig1MemoryUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NoKSM.AvgUsedFrac*100, "util-avg-%")
		b.ReportMetric(r.NoKSM.MinUsedFrac*100, "util-min-%")
		b.ReportMetric(r.NoKSM.MaxUsedFrac*100, "util-max-%")
		b.ReportMetric(r.KSMReductionFrac()*100, "ksm-cut-%")
		if i == 0 {
			b.Logf("\n%s", r.Table())
		}
	}
}

// BenchmarkTable1PowerVsUtilization regenerates Table 1.
func BenchmarkTable1PowerVsUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunTable1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PowerW[0], "power-10%-W")
		b.ReportMetric(r.PowerW[len(r.PowerW)-1], "power-100%-W")
		if i == 0 {
			b.Logf("\n%s", r.Table())
		}
	}
}

// BenchmarkFig2DRAMIdleBusyPower regenerates Fig. 2.
func BenchmarkFig2DRAMIdleBusyPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.CapacityGB == 256 {
				b.ReportMetric(row.IdleW, "idle-256GB-W")
				b.ReportMetric(row.BusyW, "busy-256GB-W")
			}
			if row.CapacityGB == 1024 {
				b.ReportMetric(row.BGFraction*100, "bg-1TB-%")
			}
		}
		if i == 0 {
			b.Logf("\n%s", r.Table())
		}
	}
}

// BenchmarkFig3Interleaving regenerates Fig. 3 (speedup, self-refresh
// residency, energy).
func BenchmarkFig3Interleaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		wi, wo := r.MeanSRFrac()
		b.ReportMetric(r.MeanSpeedup(), "speedup-x")
		b.ReportMetric(wi*100, "srf-intlv-%")
		b.ReportMetric(wo*100, "srf-contig-%")
		if i == 0 {
			b.Logf("\n%s", r.Table())
		}
	}
}

// BenchmarkFig6OfflinedCapacity regenerates Fig. 6 (and shares the
// block-size sweep with Fig. 7 / Table 2).
func BenchmarkFig6OfflinedCapacity(b *testing.B) {
	benchBlockSweep(b, func(r exp.BlockSizeResult, bb *testing.B) {
		var sum128, sum512 float64
		for _, c := range r.Cells {
			if c.BlockMB == 128 {
				sum128 += c.OfflinedGB
			}
			if c.BlockMB == 512 {
				sum512 += c.OfflinedGB
			}
		}
		bb.ReportMetric(sum128/6, "offlined-128MB-GB")
		bb.ReportMetric(sum512/6, "offlined-512MB-GB")
		bb.Logf("\n%s", r.Fig6Table())
	})
}

// BenchmarkFig7ExecTimeVsBlockSize regenerates Fig. 7.
func BenchmarkFig7ExecTimeVsBlockSize(b *testing.B) {
	benchBlockSweep(b, func(r exp.BlockSizeResult, bb *testing.B) {
		var max128 float64
		for _, c := range r.Cells {
			if c.BlockMB == 128 && c.OverheadPct > max128 {
				max128 = c.OverheadPct
			}
		}
		bb.ReportMetric(max128, "max-overhead-%")
		bb.Logf("\n%s", r.Fig7Table())
	})
}

// BenchmarkTable2OnOffCounts regenerates Table 2.
func BenchmarkTable2OnOffCounts(b *testing.B) {
	benchBlockSweep(b, func(r exp.BlockSizeResult, bb *testing.B) {
		for _, c := range r.Cells {
			if c.App == "403.gcc" && c.BlockMB == 128 {
				bb.ReportMetric(float64(c.OnOffEvents), "gcc-events-128MB")
			}
			if c.App == "429.mcf" && c.BlockMB == 128 {
				bb.ReportMetric(float64(c.OnOffEvents), "mcf-events-128MB")
			}
		}
		bb.Logf("\n%s", r.Table2())
	})
}

// The block sweep backs three benchmarks (Fig. 6, Fig. 7, Table 2); run
// it once per process and share the result.
var (
	blockSweepOnce sync.Once
	blockSweepRes  exp.BlockSizeResult
	blockSweepErr  error
)

func benchBlockSweep(b *testing.B, report func(exp.BlockSizeResult, *testing.B)) {
	for i := 0; i < b.N; i++ {
		blockSweepOnce.Do(func() {
			blockSweepRes, blockSweepErr = exp.RunBlockSizeSweep(benchOpts())
		})
		if blockSweepErr != nil {
			b.Fatal(blockSweepErr)
		}
		if i == 0 {
			report(blockSweepRes, b)
		}
	}
}

// BenchmarkTable3Latencies regenerates Table 3.
func BenchmarkTable3Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunTable3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OfflineMs, "offline-ms")
		b.ReportMetric(r.OnlineMs, "online-ms")
		b.ReportMetric(r.EAgainMs, "eagain-ms")
		b.ReportMetric(r.EBusyMs*1000, "ebusy-us")
		if i == 0 {
			b.Logf("\n%s", r.Table())
		}
	}
}

// BenchmarkFig8OffliningFailures regenerates Fig. 8.
func BenchmarkFig8OffliningFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ReductionFrac()*100, "failure-cut-%")
		if i == 0 {
			b.Logf("\n%s", r.Table())
		}
	}
}

// BenchmarkFig9DRAMEnergy regenerates Fig. 9 (shares the energy matrix
// with Figs. 10/11).
func BenchmarkFig9DRAMEnergy(b *testing.B) {
	benchEnergy(b, func(r exp.EnergyResult, bb *testing.B) {
		spec, dc := r.MeanDRAMSavingsPct()
		bb.ReportMetric(spec, "dram-cut-spec-%")
		bb.ReportMetric(dc, "dram-cut-dc-%")
		bb.Logf("\n%s", r.Fig9Table())
	})
}

// BenchmarkFig10SystemEnergy regenerates Fig. 10.
func BenchmarkFig10SystemEnergy(b *testing.B) {
	benchEnergy(b, func(r exp.EnergyResult, bb *testing.B) {
		bb.Logf("\n%s", r.Fig10Table())
	})
}

// BenchmarkFig11ExecOverhead regenerates Fig. 11.
func BenchmarkFig11ExecOverhead(b *testing.B) {
	benchEnergy(b, func(r exp.EnergyResult, bb *testing.B) {
		bb.ReportMetric(r.MaxOverheadPct(), "max-overhead-%")
		bb.Logf("\n%s", r.Fig11Table())
	})
}

// The energy matrix backs Figs. 9, 10 and 11; it is by far the heaviest
// experiment (30 detailed multi-copy runs), so the three benchmarks share
// one execution per process.
var (
	energyOnce sync.Once
	energyRes  exp.EnergyResult
	energyErr  error
)

func benchEnergy(b *testing.B, report func(exp.EnergyResult, *testing.B)) {
	for i := 0; i < b.N; i++ {
		energyOnce.Do(func() {
			energyRes, energyErr = exp.RunEnergyMatrix(benchOpts())
		})
		if energyErr != nil {
			b.Fatal(energyErr)
		}
		if i == 0 {
			report(energyRes, b)
		}
	}
}

// BenchmarkFig12OfflinedBlocks regenerates Fig. 12.
func BenchmarkFig12OfflinedBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NoKSM.AvgOffBlocks, "off-blocks-avg")
		b.ReportMetric(r.WithKSM.AvgOffBlocks, "off-blocks-ksm-avg")
		b.ReportMetric(r.NoKSM.BGReductionPct, "bg-cut-%")
		b.ReportMetric(r.WithKSM.BGReductionPct, "bg-cut-ksm-%")
		if i == 0 {
			b.Logf("\n%s", r.Table())
		}
	}
}

// BenchmarkTailLatency measures the tail-latency impact on
// latency-critical services (the §6.2 discussion next to Fig. 11).
func BenchmarkTailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunTailLatency(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MaxP99InflationPct(), "p99-inflation-%")
		if i == 0 {
			b.Logf("\n%s", r.Table())
		}
	}
}

// BenchmarkAblations sweeps the design knobs DESIGN.md calls out
// (neighbor rule, thresholds, group size, DPD residual, idle policy).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunAblations(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.String())
		}
	}
}

// BenchmarkRAMZzzImplementation validates the working RAMZzz daemon
// against the analytic Fig. 9 model.
func BenchmarkRAMZzzImplementation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunRAMZzz(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		contig, err := r.Find(false, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(contig.SRFraction, "sr-frac-contig")
		b.ReportMetric(float64(contig.MigratedPages), "migrated-pages")
		if i == 0 {
			b.Logf("\n%s", r.Table())
		}
	}
}

// BenchmarkSwapThreshold sweeps off_thr to reproduce the §4.2 swap cliff
// (thresholds under 10% thrash through the swap device).
func BenchmarkSwapThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunSwapThreshold(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].SwapOutGB, "swap-2%-GB")
		b.ReportMetric(r.Rows[2].SwapOutGB, "swap-10%-GB")
		if i == 0 {
			b.Logf("\n%s", r.Table())
		}
	}
}

// BenchmarkHWCost regenerates the §4.3 hardware-cost comparison.
func BenchmarkHWCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunHWCost()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s\n%s", r.Register, r.Area)
		}
	}
}

// BenchmarkFig13PowerVsCapacity regenerates Fig. 13.
func BenchmarkFig13PowerVsCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig13(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.GDReductionPct.DRAM, "1TB-dram-cut-%")
		b.ReportMetric(last.GDReductionPct.System, "1TB-sys-cut-%")
		b.ReportMetric(last.GDKSMReductionPct.DRAM, "1TB-dram-cut-ksm-%")
		b.ReportMetric(last.GDKSMReductionPct.System, "1TB-sys-cut-ksm-%")
		if i == 0 {
			b.Logf("\n%s", r.Table())
		}
	}
}

// BenchmarkPolicyGrid regenerates the policy-pipeline ablation: the
// (tracker x policy) x workload grid behind the redesigned selection
// API (DESIGN.md §12).
func BenchmarkPolicyGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunPolicyGrid(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		// free-first vs the age-threshold gate on mcf: the capacity the
		// idle gate gives up for stability.
		b.ReportMetric(r.Cells[0].OfflinedGB, "free-first-mcf-GB")
		b.ReportMetric(r.Cells[len(r.Apps)].OfflinedGB, "age-thr-mcf-GB")
		var failures int64
		for _, c := range r.Cells {
			failures += c.Failures
		}
		b.ReportMetric(float64(failures), "grid-failures")
		if i == 0 {
			b.Logf("\n%s\n%s\n%s\n%s", r.OfflinedTable(), r.FailureTable(), r.ChurnTable(), r.OverheadTable())
		}
	}
}
