package exp

import (
	"errors"
	"fmt"

	"greendimm/internal/core"
	"greendimm/internal/dram"
	"greendimm/internal/hotplug"
	"greendimm/internal/kernel"
	"greendimm/internal/ksm"
	"greendimm/internal/power"
	"greendimm/internal/sim"
	"greendimm/internal/vmtrace"
)

// ErrInterrupted reports that a run was aborted early by Hooks.Stop (a
// daemon deadline or cancellation) and produced no usable result.
var ErrInterrupted = errors.New("exp: run interrupted by stop hook")

// VMScenario is the serializable form of the paper's §6.3
// virtualized-server experiment: the same knobs cmd/greendimm and
// examples/vmserver wire by hand, as one JSON document. The JSON field
// names are the wire contract of greendimmd job specs; zero values take
// the paper defaults (Normalized spells them out, so equivalent specs
// hash identically in the daemon's result cache).
type VMScenario struct {
	// CapacityGB sizes the host DRAM (dram.OrgWithCapacity; paper: 256).
	CapacityGB int `json:"capacity_gb,omitempty"`
	// Hours is the simulated horizon (paper: 24).
	Hours float64 `json:"hours,omitempty"`
	// KSM enables kernel samepage merging at the paper's scan rate.
	KSM bool `json:"ksm"`
	// GreenDIMM enables the block off-lining daemon.
	GreenDIMM bool  `json:"greendimm"`
	Seed      int64 `json:"seed,omitempty"`

	// Host / trace shape (vmtrace.Config; zero takes DefaultConfig).
	HostCores           int     `json:"host_cores,omitempty"`
	ArrivalsPerHourMean float64 `json:"arrivals_per_hour,omitempty"`
	AdmitCapFrac        float64 `json:"admit_cap_frac,omitempty"`
	MaxVCPURatio        float64 `json:"max_vcpu_ratio,omitempty"`
	ScheduleEverySec    float64 `json:"schedule_every_sec,omitempty"`
	RampMBPerSec        int64   `json:"ramp_mb_per_sec,omitempty"`
	NumVMTypes          int     `json:"num_vm_types,omitempty"`
	Images              int     `json:"images,omitempty"`
	PageVolatility      float64 `json:"page_volatility,omitempty"`

	// GreenDIMM daemon knobs (core.Config; zero takes paper defaults).
	BlockMB  int     `json:"block_mb,omitempty"`
	PeriodMS float64 `json:"period_ms,omitempty"`
	OffThr   float64 `json:"off_thr,omitempty"`
	OnThr    float64 `json:"on_thr,omitempty"`
	// Policy selects the block-selection pipeline. Accepts both the
	// legacy bare string ("free-first") and the structured object
	// ({"name": ..., "tracker": ..., "params": {...}}); canonical legacy
	// specs marshal back to the bare string, so pre-pipeline job specs
	// keep their exact spec hashes.
	Policy            core.PolicySpec `json:"policy,omitempty"`
	MaxOfflinePerTick int             `json:"max_offline_per_tick,omitempty"`
	NeighborRule      bool            `json:"neighbor_rule,omitempty"`
	AdaptiveAlpha     bool            `json:"adaptive_alpha,omitempty"`

	// horizonOverride lets in-process callers (runVMDay) pass an exact
	// sim.Time horizon, sidestepping the float hours round trip. Not
	// serialized.
	horizonOverride sim.Time
}

// Normalized returns the scenario with every defaulted field made
// explicit. Specs that normalize equal describe the same run, which is
// what makes content-addressed result caching sound.
func (s VMScenario) Normalized() VMScenario {
	if s.CapacityGB == 0 {
		s.CapacityGB = 256
	}
	if s.Hours == 0 && s.horizonOverride == 0 {
		s.Hours = 24
	}
	d := vmtrace.DefaultConfig()
	if s.HostCores == 0 {
		s.HostCores = d.HostCores
	}
	if s.ArrivalsPerHourMean == 0 {
		s.ArrivalsPerHourMean = d.ArrivalsPerHourMean
	}
	if s.AdmitCapFrac == 0 {
		s.AdmitCapFrac = d.AdmitCapFrac
	}
	if s.MaxVCPURatio == 0 {
		s.MaxVCPURatio = d.MaxVCPURatio
	}
	if s.ScheduleEverySec == 0 {
		s.ScheduleEverySec = d.ScheduleEvery.Seconds()
	}
	if s.RampMBPerSec == 0 {
		s.RampMBPerSec = d.RampBytesPerSec >> 20
	}
	if s.NumVMTypes == 0 {
		s.NumVMTypes = d.NumTypes
	}
	if s.Images == 0 {
		s.Images = d.Images
	}
	if s.PageVolatility == 0 {
		s.PageVolatility = d.PageVolatility
	}
	if s.BlockMB == 0 {
		s.BlockMB = 1024 // paper §6.3: 1GB blocks for the 256GB host
	}
	if s.PeriodMS == 0 {
		s.PeriodMS = 1000 // paper §4.2: 1s monitor period
	}
	if s.MaxOfflinePerTick == 0 {
		s.MaxOfflinePerTick = 8
	}
	// Policy normalization can fail (unknown names, bad params);
	// Normalized stays error-free by leaving invalid specs untouched for
	// Validate to report.
	if norm, err := s.Policy.Normalized(); err == nil {
		s.Policy = norm
	}
	return s
}

// Validate rejects specs the simulator cannot run. Call on the Normalized
// form.
func (s VMScenario) Validate() error {
	if _, err := dram.OrgWithCapacity(s.CapacityGB); err != nil {
		return err
	}
	if s.horizonOverride == 0 {
		// sim.Time spans ~106 days; leave headroom for in-run scheduling.
		if s.Hours <= 0 || s.Hours > 2400 {
			return fmt.Errorf("exp: hours %g out of (0, 2400]", s.Hours)
		}
	}
	if s.BlockMB <= 0 || (int64(s.CapacityGB)<<10)%int64(s.BlockMB) != 0 {
		return fmt.Errorf("exp: block_mb %d must evenly divide capacity %dGB", s.BlockMB, s.CapacityGB)
	}
	if s.PeriodMS <= 0 {
		return fmt.Errorf("exp: period_ms %g must be positive", s.PeriodMS)
	}
	if _, err := s.Policy.Normalized(); err != nil {
		return err
	}
	if s.OffThr < 0 || s.OffThr > 1 || s.OnThr < 0 || s.OnThr > 1 {
		return fmt.Errorf("exp: off_thr/on_thr must be fractions in [0,1]")
	}
	// The daemon applies paper defaults to zero thresholds; checking the
	// effective values here keeps an inverted band from surfacing as a
	// failed job deep inside the run.
	effOff, effOn := s.OffThr, s.OnThr
	if effOff == 0 {
		effOff = 0.10
	}
	if effOn == 0 {
		effOn = 0.05
	}
	if effOn >= effOff {
		return fmt.Errorf("exp: effective on_thr %g must be below off_thr %g", effOn, effOff)
	}
	if s.HostCores <= 0 || s.NumVMTypes <= 0 || s.Images <= 0 {
		return fmt.Errorf("exp: host_cores, num_vm_types and images must be positive")
	}
	if s.AdmitCapFrac <= 0 || s.AdmitCapFrac > 1 {
		return fmt.Errorf("exp: admit_cap_frac %g out of (0,1]", s.AdmitCapFrac)
	}
	if s.PageVolatility < 0 || s.PageVolatility > 1 {
		return fmt.Errorf("exp: page_volatility %g out of [0,1]", s.PageVolatility)
	}
	return nil
}

// horizon reports the simulated end time.
func (s VMScenario) horizon() sim.Time {
	if s.horizonOverride != 0 {
		return s.horizonOverride
	}
	return sim.FromSeconds(s.Hours * 3600)
}

// RunVMScenario runs one virtualized-server scenario and reports the same
// aggregates the paper's Fig. 1/12 runs use. It is the execution path
// behind greendimmd "vmserver" jobs; hooks carries the daemon's deadline
// predicate. Runs aborted by hooks.Stop return ErrInterrupted.
func RunVMScenario(spec VMScenario, hooks Hooks) (VMDayResult, error) {
	s := spec.Normalized()
	if err := s.Validate(); err != nil {
		return VMDayResult{}, err
	}
	org, err := dram.OrgWithCapacity(s.CapacityGB)
	if err != nil {
		return VMDayResult{}, err
	}

	eng := hooks.newEngine()
	mem, err := kernel.New(kernel.Config{
		TotalBytes: org.TotalBytes(),
		PageBytes:  2 << 20,
		Seed:       s.Seed,
	})
	if err != nil {
		return VMDayResult{}, err
	}
	defer mem.Release() // see runTiming
	var ksmd *ksm.Daemon
	if s.KSM {
		// The paper's 1000-pages/50ms scan (80MB/s) in 2MB frames.
		ksmd, err = ksm.New(eng, mem, ksm.Config{
			PagesPerScan:    2,
			ScanPeriod:      50 * sim.Millisecond,
			ScanCostPerPage: 2560 * sim.Microsecond,
			Seed:            s.Seed,
		})
		if err != nil {
			return VMDayResult{}, err
		}
		ksmd.Start()
	}

	// Memory blocks map 1:1 onto sub-array groups (paper §6.3).
	blockBytes := int64(s.BlockMB) << 20
	hp, err := hotplug.New(mem, hotplug.Config{BlockBytes: blockBytes, Seed: s.Seed})
	if err != nil {
		return VMDayResult{}, err
	}
	groups := int(org.TotalBytes() / blockBytes)
	ctrl := core.NewRegisterController(eng, groups)
	var daemon *core.Daemon
	if s.GreenDIMM {
		daemon, err = core.New(eng, mem, hp, ctrl, core.Config{
			Period:            sim.Time(s.PeriodMS * float64(sim.Millisecond)),
			OffThr:            s.OffThr,
			OnThr:             s.OnThr,
			Policy:            s.Policy,
			AdaptiveAlpha:     s.AdaptiveAlpha,
			NeighborRule:      s.NeighborRule,
			GroupBytes:        blockBytes,
			MaxOfflinePerTick: s.MaxOfflinePerTick,
			Seed:              s.Seed,
		})
		if err != nil {
			return VMDayResult{}, err
		}
		daemon.AttachKernelTap()
		daemon.Start()
		if ksmd != nil {
			// §5.3 optimization: react right after each merge pass.
			ksmd.OnFullPass(daemon.Tick)
		}
	}

	vcfg := vmtrace.DefaultConfig()
	vcfg.Seed = s.Seed
	vcfg.HostMemBytes = org.TotalBytes()
	vcfg.HostCores = s.HostCores
	vcfg.ArrivalsPerHourMean = s.ArrivalsPerHourMean
	vcfg.AdmitCapFrac = s.AdmitCapFrac
	vcfg.MaxVCPURatio = s.MaxVCPURatio
	vcfg.ScheduleEvery = sim.FromSeconds(s.ScheduleEverySec)
	vcfg.RampBytesPerSec = s.RampMBPerSec << 20
	vcfg.NumTypes = s.NumVMTypes
	vcfg.Images = s.Images
	vcfg.PageVolatility = s.PageVolatility
	host, err := vmtrace.New(eng, mem, ksmd, vcfg)
	if err != nil {
		return VMDayResult{}, err
	}
	host.Start()

	model, err := power.NewModel(org)
	if err != nil {
		return VMDayResult{}, err
	}
	sys := power.DefaultSystem()

	res := VMDayResult{WithKSM: s.KSM, WithGreenDIMM: s.GreenDIMM, MinUsedFrac: 1}
	res.MinOffBlocks = groups + 1
	var powerSum, sysSum float64
	var sampler func()
	samplePeriod := 5 * sim.Minute
	sampler = func() {
		smp := VMDaySample{At: eng.Now()}
		mi := mem.Meminfo()
		smp.UsedFrac = float64(mi.UsedBytes) / float64(org.TotalBytes())
		smp.CPUUtil = hostCPUUtil(host, ksmd)
		if daemon != nil {
			smp.OfflinedBlocks = daemon.OfflinedBlocks()
			smp.DPDFrac = daemon.DPDFraction()
		}
		if ksmd != nil {
			smp.KSMSavedBytes = ksmd.SavedBytes()
		}
		res.Samples = append(res.Samples, smp)
		dramW, sysW := vmPowerW(model, sys, smp.DPDFrac, smp.CPUUtil)
		powerSum += dramW
		sysSum += sysW
		eng.AfterDaemon(samplePeriod, sampler)
	}
	eng.AtDaemon(eng.Now()+samplePeriod, sampler)
	eng.RunUntil(s.horizon())
	if eng.Interrupted() {
		return VMDayResult{}, ErrInterrupted
	}

	// Aggregate.
	var usedSum, cpuSum, offSum, dpdSum float64
	var savedSum int64
	for _, smp := range res.Samples {
		usedSum += smp.UsedFrac
		cpuSum += smp.CPUUtil
		offSum += float64(smp.OfflinedBlocks)
		dpdSum += smp.DPDFrac
		savedSum += smp.KSMSavedBytes
		if smp.UsedFrac < res.MinUsedFrac {
			res.MinUsedFrac = smp.UsedFrac
		}
		if smp.UsedFrac > res.MaxUsedFrac {
			res.MaxUsedFrac = smp.UsedFrac
		}
		if smp.OfflinedBlocks < res.MinOffBlocks {
			res.MinOffBlocks = smp.OfflinedBlocks
		}
		if smp.OfflinedBlocks > res.MaxOffBlocks {
			res.MaxOffBlocks = smp.OfflinedBlocks
		}
	}
	n := float64(len(res.Samples))
	if n > 0 {
		res.AvgUsedFrac = usedSum / n
		res.AvgCPUUtil = cpuSum / n
		res.AvgOffBlocks = offSum / n
		res.AvgDPDFrac = dpdSum / n
		res.KSMSavedAvg = savedSum / int64(n)
		res.AvgDRAMPowerW = powerSum / n
		res.AvgSystemW = sysSum / n
	}
	res.BGReductionPct = res.AvgDPDFrac * (1 - model.DPDResidual) * 100
	return res, nil
}
