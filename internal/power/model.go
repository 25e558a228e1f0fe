// Package power converts memory-controller activity statistics into DRAM
// and system power/energy figures, in the style the GreenDIMM paper uses:
// Micron-style IDDx datasheet arithmetic for the DRAM devices (the same
// math RAPL calibration and DRAMPower/CACTI use), a per-DIMM static term
// for the register/clock-driver, and a simple CPU+rest-of-system model for
// wall power.
//
// The headline anchor points from the paper's Fig. 2 hold for the default
// parameters: a 256GB machine (eight 2R x4 32GB DIMMs) consumes ~18W idle
// and ~26W running 16 copies of mcf, and background power dominates as
// capacity grows (44% at 64GB to ~78% at 1TB).
package power

import (
	"fmt"

	"greendimm/internal/dram"
	"greendimm/internal/sim"
)

// DeviceIDD holds per-device DDR4 current parameters in milliamps at VDD.
// Names follow the JEDEC datasheet conventions.
type DeviceIDD struct {
	VDD   float64 // volts
	IDD0  float64 // one-bank ACT-PRE cycling
	IDD2N float64 // precharge standby
	IDD2P float64 // precharge power-down
	IDD3N float64 // active standby
	IDD3P float64 // active power-down
	IDD4R float64 // read burst
	IDD4W float64 // write burst
	IDD5B float64 // burst refresh
	IDD6  float64 // self-refresh
}

// DDR4_4Gb returns datasheet-typical currents for a 4Gb x8 DDR4-2133
// device (the 64GB machine's DIMMs).
func DDR4_4Gb() DeviceIDD {
	return DeviceIDD{
		VDD:   1.2,
		IDD0:  58,
		IDD2N: 37,
		IDD2P: 24,
		IDD3N: 50,
		IDD3P: 32,
		IDD4R: 150,
		IDD4W: 140,
		IDD5B: 190,
		IDD6:  20,
	}
}

// DDR4_8Gb returns currents for an 8Gb x4 device (the 256GB machine).
// Higher density refreshes more rows per REF, hence the larger IDD5B.
func DDR4_8Gb() DeviceIDD {
	return DeviceIDD{
		VDD:   1.2,
		IDD0:  55,
		IDD2N: 40,
		IDD2P: 25,
		IDD3N: 52,
		IDD3P: 33,
		IDD4R: 145,
		IDD4W: 135,
		IDD5B: 250,
		IDD6:  22,
	}
}

// Model computes DRAM power from organization, timing and device currents.
type Model struct {
	Org    dram.Org
	Timing dram.Timing
	IDD    DeviceIDD

	// DIMMStaticW is the per-DIMM always-on power (registering clock
	// driver, on-DIMM PLL, SPD, termination bias) that no DRAM power
	// state removes.
	DIMMStaticW float64

	// DPDResidual is the fraction of a sub-array group's background power
	// that remains in deep power-down: power-gate switch leakage plus the
	// always-on spare rows from repair arrays (paper §6.1 assumes spare
	// rows, <2% of rows, stay on).
	DPDResidual float64

	// IOEnergyPJPerBit is the interface energy per transferred bit
	// (DQ drivers, on-die termination on both ends): power the IDD4
	// current deltas do not capture but RAPL-measured busy power does.
	IOEnergyPJPerBit float64
}

// NewModel builds the default model for an organization, choosing device
// currents by density.
func NewModel(o dram.Org) (*Model, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Org: o, DIMMStaticW: 0.20, DPDResidual: 0.02, IOEnergyPJPerBit: 10}
	switch o.DeviceGbit {
	case 4:
		m.IDD = DDR4_4Gb()
		m.Timing = dram.DDR4_2133()
	case 8:
		m.IDD = DDR4_8Gb()
		m.Timing = dram.DDR4_2133_8Gb()
	default:
		return nil, fmt.Errorf("power: no IDD preset for %dGb devices", o.DeviceGbit)
	}
	return m, nil
}

// watts converts a per-device current (mA) into per-rank watts.
func (m *Model) watts(mA float64) float64 {
	return mA / 1000 * m.IDD.VDD * float64(m.Org.DevicesPerRank())
}

// RankBackgroundW returns the background power of one rank in the given
// power state, excluding refresh energy (accounted separately per REF) and
// excluding DIMM static power. dpdFrac is the fraction of sub-array groups
// in GreenDIMM deep power-down: that share of the array's background power
// drops to DPDResidual.
func (m *Model) RankBackgroundW(state dram.PowerState, dpdFrac float64) float64 {
	if dpdFrac < 0 || dpdFrac > 1 {
		panic(fmt.Sprintf("power: dpdFrac %v out of [0,1]", dpdFrac))
	}
	var base float64
	switch state {
	case dram.StateActive:
		base = m.watts(m.IDD.IDD3N)
	case dram.StatePrechargeStandby:
		base = m.watts(m.IDD.IDD2N)
	case dram.StatePowerDown:
		base = m.watts(m.IDD.IDD2P)
	case dram.StateSelfRefresh:
		// IDD6 includes the self-refresh current itself.
		base = m.watts(m.IDD.IDD6)
	default:
		panic(fmt.Sprintf("power: %v is not a rank state", state))
	}
	return base*(1-dpdFrac) + base*dpdFrac*m.DPDResidual
}

// ActEnergyJ returns the energy of one ACT+PRE pair on one rank, i.e. the
// IDD0 cycling current net of the background already accounted.
func (m *Model) ActEnergyJ() float64 {
	t := m.Timing
	net := m.IDD.IDD0*t.TRC.Seconds() -
		(m.IDD.IDD3N*t.TRAS.Seconds() + m.IDD.IDD2N*(t.TRC-t.TRAS).Seconds())
	return net / 1000 * m.IDD.VDD * float64(m.Org.DevicesPerRank())
}

// BurstEnergyJ returns the energy of one read or write burst net of active
// standby background, including interface (driver + termination) energy
// for the 64-byte line transferred.
func (m *Model) BurstEnergyJ(write bool) float64 {
	i := m.IDD.IDD4R
	if write {
		i = m.IDD.IDD4W
	}
	core := (i - m.IDD.IDD3N) / 1000 * m.IDD.VDD *
		m.Timing.TBL.Seconds() * float64(m.Org.DevicesPerRank())
	ioBits := float64(m.Org.LineBytes()) * 8
	return core + m.IOEnergyPJPerBit*1e-12*ioBits
}

// RefEnergyJ returns the energy of one all-bank REF on one rank, net of
// standby background, with dpdFrac of the sub-array groups not refreshed
// (GreenDIMM stops refresh for deep-powered-down groups).
func (m *Model) RefEnergyJ(dpdFrac float64) float64 {
	full := (m.IDD.IDD5B - m.IDD.IDD2N) / 1000 * m.IDD.VDD *
		m.Timing.TRFC.Seconds() * float64(m.Org.DevicesPerRank())
	return full * (1 - dpdFrac)
}

// DIMMStaticTotalW is the static power of all DIMMs in the system.
func (m *Model) DIMMStaticTotalW() float64 {
	return m.DIMMStaticW * float64(m.Org.Channels*m.Org.DIMMsPerChannel)
}

// IdleSystemDRAMW estimates whole-memory power with every rank sitting in
// precharge standby and refreshing normally — the paper's "idle" bar in
// Fig. 2.
func (m *Model) IdleSystemDRAMW() float64 {
	ranks := float64(m.Org.TotalRanks())
	bg := m.RankBackgroundW(dram.StatePrechargeStandby, 0) * ranks
	refPerRank := m.RefEnergyJ(0) / m.Timing.TREFI.Seconds()
	return bg + refPerRank*ranks + m.DIMMStaticTotalW()
}

// Breakdown is a DRAM power decomposition in watts.
type Breakdown struct {
	BackgroundW float64 // state-dependent standby power of all ranks
	RefreshW    float64 // refresh energy averaged over the interval
	ActPreW     float64 // activation/precharge
	RdWrW       float64 // read/write bursts
	DIMMStaticW float64 // RCD/PLL/termination
}

// TotalW sums the components.
func (b Breakdown) TotalW() float64 {
	return b.BackgroundW + b.RefreshW + b.ActPreW + b.RdWrW + b.DIMMStaticW
}

// BackgroundFraction is the fraction of total power that is background +
// refresh + static — the quantity the paper tracks in Fig. 2.
func (b Breakdown) BackgroundFraction() float64 {
	t := b.TotalW()
	if t == 0 {
		return 0
	}
	return (b.BackgroundW + b.RefreshW + b.DIMMStaticW) / t
}

// Activity summarizes controller activity over an interval, the input to
// FromActivity. Residencies are summed across all ranks (rank-seconds).
type Activity struct {
	Window sim.Time // wall duration of the interval

	// Per-state rank residency, in rank-time units. Sum should equal
	// Window x TotalRanks when every rank is accounted.
	ActiveT  sim.Time
	StandbyT sim.Time
	PowerDnT sim.Time
	SelfRefT sim.Time

	Activations int64 // ACT count across all ranks
	Reads       int64
	Writes      int64
	Refreshes   int64 // REF commands issued (auto-refresh, not self-refresh)

	// DPDFrac is the time-averaged fraction of sub-array groups in deep
	// power-down over the window.
	DPDFrac float64
}

// Validate checks the residencies cover exactly the window.
func (a Activity) Validate(o dram.Org) error {
	if a.Window <= 0 {
		return fmt.Errorf("power: non-positive window %v", a.Window)
	}
	total := a.ActiveT + a.StandbyT + a.PowerDnT + a.SelfRefT
	want := a.Window * sim.Time(o.TotalRanks())
	// Allow rounding slack of one ns per rank.
	slack := sim.Time(o.TotalRanks()) * sim.Nanosecond
	if diff := total - want; diff > slack || diff < -slack {
		return fmt.Errorf("power: residency %v != window x ranks %v", total, want)
	}
	if a.DPDFrac < 0 || a.DPDFrac > 1 {
		return fmt.Errorf("power: DPDFrac %v out of range", a.DPDFrac)
	}
	return nil
}

// FromActivity converts an activity summary into an average power
// breakdown over the window.
func (m *Model) FromActivity(a Activity) (Breakdown, error) {
	if err := a.Validate(m.Org); err != nil {
		return Breakdown{}, err
	}
	w := a.Window.Seconds()
	var b Breakdown
	b.BackgroundW = (m.RankBackgroundW(dram.StateActive, a.DPDFrac)*a.ActiveT.Seconds() +
		m.RankBackgroundW(dram.StatePrechargeStandby, a.DPDFrac)*a.StandbyT.Seconds() +
		m.RankBackgroundW(dram.StatePowerDown, a.DPDFrac)*a.PowerDnT.Seconds() +
		m.RankBackgroundW(dram.StateSelfRefresh, a.DPDFrac)*a.SelfRefT.Seconds()) / w
	b.RefreshW = float64(a.Refreshes) * m.RefEnergyJ(a.DPDFrac) / w
	b.ActPreW = float64(a.Activations) * m.ActEnergyJ() / w
	b.RdWrW = (float64(a.Reads)*m.BurstEnergyJ(false) + float64(a.Writes)*m.BurstEnergyJ(true)) / w
	b.DIMMStaticW = m.DIMMStaticTotalW()
	return b, nil
}
