// Package sim drives a full power/thermal simulation of one processor
// configuration on one benchmark, following the paper's methodology (§4):
//
//  1. A profiling phase measures the nominal average dynamic power per
//     block (the paper uses 50M instructions).
//  2. The thermal model is warm-started at the steady state of nominal
//     power plus converged leakage, capped at the 381 K emergency limit.
//  3. The measurement phase then runs interval by interval: every
//     IntervalCycles the per-block power of the interval is fed to the RC
//     network, temperatures advance by the paper-equivalent interval time,
//     the per-bank trace-cache statistics reach the reconfiguration logic
//     (bank hopping rotation and/or the thermal-aware mapping function),
//     and the temperature metrics are sampled.
//
// The paper's 10M-cycle interval at 10 GHz is 1 ms of thermal time; the
// scaled default interval keeps that thermal step so heating rates versus
// hop periods are preserved (DESIGN.md §6).
package sim

import (
	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Options controls one simulation run.
type Options struct {
	// WarmupOps is the length of the profiling phase in micro-ops.
	WarmupOps uint64
	// MeasureOps is the length of the measured phase in micro-ops.
	MeasureOps uint64
	// IntervalCycles is the reconfiguration/thermal interval (scaled
	// stand-in for the paper's 10M cycles).
	IntervalCycles uint64
	// IntervalSeconds is the thermal time per interval (the paper's
	// interval is 1 ms at 10 GHz).
	IntervalSeconds float64
	// Thermal overrides the default RC parameters when non-nil.
	Thermal *thermal.Params
	// Power overrides the default energy table when non-nil.
	Power *power.Constants
	// DTM enables the dynamic thermal management controller (fetch
	// toggling at thermal emergencies) when non-nil.
	DTM *dtm.Config
}

// DefaultOptions returns the scaled defaults used by the experiments.
func DefaultOptions() Options {
	return Options{
		WarmupOps:       120_000,
		MeasureOps:      300_000,
		IntervalCycles:  100_000,
		IntervalSeconds: 1e-3,
	}
}

// Result is the outcome of one run.
type Result struct {
	Config     core.Config
	Bench      string
	Stats      core.Stats // full-run pipeline statistics
	WarmCycles uint64     // cycles spent in the profiling phase
	MeasCycles uint64     // cycles of the measured phase
	MeasOps    uint64     // micro-ops committed in the measured phase

	Floorplan *floorplan.Floorplan
	Temps     *metrics.Series // per-interval block temperatures
	AvgPower  []float64       // measured-phase average per-block power (W)
	Nominal   []float64       // profiling-phase nominal dynamic power (W)

	TCHitRate float64
	TCHops    uint64

	// DTM statistics (zero unless Options.DTM was set).
	DTMEngagements uint64
	DTMThrottled   uint64
	DTMMinDuty     int
}

// IPC returns the measured-phase IPC.
func (r *Result) IPC() float64 {
	if r.MeasCycles == 0 {
		return 0
	}
	return float64(r.MeasOps) / float64(r.MeasCycles)
}

// Interval is the per-interval snapshot handed to a Hook at the end of
// every measured interval, after the thermal step and the end-of-interval
// reconfiguration (bank hop / mapping re-bias / DTM update) have run.
type Interval struct {
	// Index counts measured intervals from 0.
	Index int
	// DeltaCycles/DeltaOps are the cycles and committed micro-ops of this
	// interval alone; Cycles/Ops are cumulative over the measured phase.
	DeltaCycles uint64
	DeltaOps    uint64
	Cycles      uint64
	Ops         uint64
	// Temps are the per-block temperatures (°C) after the thermal step;
	// Power is the per-block dynamic+leakage power (W) fed to it.  Both
	// are copies owned by the hook.
	Temps []float64
	Power []float64
	// Hops is the cumulative trace-cache bank-hop count.
	Hops uint64
	// DutyNum/DutyDen is the fetch duty cycle set by the DTM controller
	// for the next interval (DutyDen == 0 when DTM is disabled), and
	// Throttled reports whether the controller is currently engaged.
	DutyNum   int
	DutyDen   int
	Throttled bool
}

// Hook observes each measured interval.  Returning a non-nil error aborts
// the run: the partially filled Result and the error are returned to the
// caller.  This is the primitive the public pkg/frontendsim Engine builds
// its context cancellation and streaming observers on.
type Hook func(Interval) error

// RunHooked simulates one configuration on one benchmark profile, calling
// hook (when non-nil) at the end of every measured interval.
func RunHooked(cfg core.Config, prof workload.Profile, opt Options, hook Hook) (*Result, error) {
	if opt.IntervalCycles == 0 {
		opt = DefaultOptions()
	}
	tp := thermal.DefaultParams()
	if opt.Thermal != nil {
		tp = *opt.Thermal
	}
	pk := power.DefaultConstants()
	if opt.Power != nil {
		pk = *opt.Power
	}

	fp := floorplan.New(floorplan.Config{
		TCBanks:     cfg.TC.Banks,
		Distributed: cfg.Distributed(),
		Partitions:  cfg.Frontends,
		Clusters:    cfg.Clusters,
	})
	pm := power.New(cfg, fp, pk)
	tm := thermal.New(fp, tp)

	total := opt.WarmupOps + opt.MeasureOps
	gen := workload.NewGenerator(prof, total)
	proc := core.New(cfg, gen)

	res := &Result{Config: cfg, Bench: prof.Name, Floorplan: fp}

	// Scratch owned by the loop: two cumulative Activity snapshots that
	// flip roles each interval, one delta, and the per-block power and
	// temperature vectors.  The steady-state pipeline below allocates
	// nothing per interval.
	nBlocks := len(fp.Blocks)
	var cur, prev, delta core.Activity
	dyn := make([]float64, nBlocks)
	leak := make([]float64, nBlocks)
	p := make([]float64, nBlocks)
	temps := make([]float64, nBlocks)
	enabled := make([]bool, cfg.TC.Banks)
	bankT := make([]float64, cfg.TC.Banks)

	// ---- Phase 1: profiling for nominal power (hopping rotates, the
	// mapping stays balanced: there are no converged temperatures yet).
	warmupTarget := uint64(float64(opt.WarmupOps) * prof.LengthScaleOrOne())
	start := proc.Activity()
	tcEnabledInto(proc, enabled)
	// Finer chunks than the full interval so short benchmark slices are
	// not consumed entirely inside the profiling phase; hopping still
	// rotates once per full interval's worth of cycles.
	chunk := opt.IntervalCycles / 8
	if chunk == 0 {
		chunk = 1
	}
	sinceHop := uint64(0)
	for !proc.Done() && proc.Stats.Committed < warmupTarget {
		proc.RunCycles(chunk)
		sinceHop += chunk
		if sinceHop >= opt.IntervalCycles {
			proc.TraceCache().Reconfigure(nil)
			sinceHop = 0
		}
		tcEnabledInto(proc, enabled)
	}
	warmAct := proc.Activity().Sub(start)
	res.WarmCycles = warmAct.Cycles
	nominal := pm.Dynamic(warmAct, enabled)
	pm.SetNominal(nominal)
	res.Nominal = nominal

	// ---- Phase 2: steady-state warm start with leakage convergence.
	temps = converge(tm, pm, nominal, enabled, temps)

	var controller *dtm.Controller
	if opt.DTM != nil {
		controller = dtm.New(*opt.DTM)
	}

	// ---- Phase 3: measurement.
	series := metrics.NewSeries(fp.Names(), areas(fp), tm.Ambient())
	avgPower := make([]float64, len(fp.Blocks))
	intervals := 0
	proc.ActivityInto(&prev)
	tcIdx := make([]int, cfg.TC.Banks)
	for b := range tcIdx {
		tcIdx[b] = fp.Index(floorplan.TCBank(b))
	}
	measStartCycles := proc.Cycle()
	measStartOps := proc.Stats.Committed
	finalize := func() {
		if intervals > 0 {
			for i := range avgPower {
				avgPower[i] /= float64(intervals)
			}
		}
		res.Stats = proc.Stats
		res.MeasCycles = proc.Cycle() - measStartCycles
		res.MeasOps = proc.Stats.Committed - measStartOps
		res.Temps = series
		res.AvgPower = avgPower
		res.TCHitRate = proc.TCHitRate()
		res.TCHops = proc.TraceCache().Stats.Hops
		if controller != nil {
			res.DTMEngagements = controller.Engagements
			res.DTMThrottled = controller.ThrottledSteps
			res.DTMMinDuty = controller.MinDuty
		}
	}
	for !proc.Done() {
		proc.RunCycles(opt.IntervalCycles)
		proc.ActivityInto(&cur)
		cur.SubInto(&prev, &delta)
		cur, prev = prev, cur // flip: prev now holds this interval's snapshot
		if delta.Cycles == 0 {
			break
		}
		tcEnabledInto(proc, enabled)
		pm.DynamicInto(&delta, enabled, dyn)
		pm.LeakageInto(temps, enabled, leak)
		power.AddInto(p, dyn, leak)
		// Scale the thermal step when the final interval is short.
		dt := opt.IntervalSeconds * float64(delta.Cycles) / float64(opt.IntervalCycles)
		tm.Step(p, dt)
		tm.TempsInto(temps)
		series.Add(temps)
		for i, w := range p {
			avgPower[i] += w
		}
		intervals++
		// End-of-interval reconfiguration: hop the gated bank and/or
		// re-bias the mapping from the per-bank sensor temperatures.
		proc.TraceCache().Reconfigure(bankTempsInto(tcIdx, temps, bankT))
		var dutyNum, dutyDen int
		var throttled bool
		if controller != nil {
			peak := temps[0]
			for _, tv := range temps {
				if tv > peak {
					peak = tv
				}
			}
			dutyNum, dutyDen = controller.Update(peak)
			proc.SetFetchGate(dutyNum, dutyDen)
			throttled = controller.Throttled()
		}
		if hook != nil {
			iv := Interval{
				Index:       intervals - 1,
				DeltaCycles: delta.Cycles,
				DeltaOps:    delta.Committed,
				Cycles:      proc.Cycle() - measStartCycles,
				Ops:         proc.Stats.Committed - measStartOps,
				Temps:       append([]float64(nil), temps...),
				Power:       append([]float64(nil), p...),
				Hops:        proc.TraceCache().Stats.Hops,
				DutyNum:     dutyNum,
				DutyDen:     dutyDen,
				Throttled:   throttled,
			}
			if err := hook(iv); err != nil {
				finalize()
				return res, err
			}
		}
	}
	finalize()
	return res, nil
}

// converge iterates steady state <-> leakage until the temperatures
// settle (the paper: "until temperature converges or reaches the
// emergency limit").  temps is caller scratch; the converged block
// temperatures are returned in it.
func converge(tm *thermal.Model, pm *power.Model, nominal []float64, enabled []bool, temps []float64) []float64 {
	for i := range temps {
		temps[i] = tm.Ambient()
	}
	leak := make([]float64, len(temps))
	p := make([]float64, len(temps))
	next := make([]float64, len(temps))
	for iter := 0; iter < 40; iter++ {
		power.AddInto(p, nominal, pm.LeakageInto(temps, enabled, leak))
		tm.SteadyState(p)
		tm.TempsInto(next)
		maxD := 0.0
		for i := range next {
			d := next[i] - temps[i]
			if d < 0 {
				d = -d
			}
			if d > maxD {
				maxD = d
			}
		}
		temps, next = next, temps
		if maxD < 0.01 {
			break
		}
	}
	return temps
}

// tcEnabledInto snapshots which trace-cache banks are powered.
func tcEnabledInto(proc *core.Processor, out []bool) {
	for b := range out {
		out[b] = proc.TraceCache().Enabled(b)
	}
}

// bankTempsInto extracts per-bank temperatures (the paper's per-bank
// thermal sensors, §3.2.2) using the precomputed bank block indices.
func bankTempsInto(tcIdx []int, temps, out []float64) []float64 {
	for b, i := range tcIdx {
		if i >= 0 {
			out[b] = temps[i]
		} else {
			out[b] = 0
		}
	}
	return out
}

func areas(fp *floorplan.Floorplan) []float64 {
	out := make([]float64, len(fp.Blocks))
	for i, b := range fp.Blocks {
		out[i] = b.Area()
	}
	return out
}
