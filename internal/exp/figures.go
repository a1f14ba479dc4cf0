package exp

import (
	"fmt"
	"time"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
)

// Point is one (CPU count, value) measurement.
type Point struct {
	CPUs  int
	Value float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced table or figure of the paper.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Failures lists the cells that exhausted harness supervision, in
	// presentation order. Each failed cell leaves a NaN point at its
	// position, so healthy cells assemble byte-identically to a
	// failure-free run of the same specs.
	Failures []CellFailure
}

// At returns the series value at the given CPU count (NaN-free: ok=false
// when the point is absent, e.g. Sweep3d's missing 1-CPU run).
func (f *Figure) At(label string, cpus int) (float64, bool) {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.CPUs == cpus {
				return p.Value, true
			}
		}
	}
	return 0, false
}

// Options configures an experiment run.
type Options struct {
	// Machine overrides the platform (default: the IBM Power3 cluster).
	Machine *machine.Config
	// Seed fixes all simulated asynchrony. The zero value selects
	// DefaultSeed; set SeedSet to request seed 0 explicitly.
	Seed uint64
	// SeedSet marks Seed as explicit, making seed 0 requestable.
	SeedSet bool
	// MaxCPUs truncates the CPU sweep (for quick runs); 0 means the
	// paper's full range.
	MaxCPUs int
	// Parallelism bounds the Runner's worker pool; 0 means GOMAXPROCS.
	// Figures are assembled in deterministic order regardless, so the
	// rendered output is byte-identical at any parallelism.
	Parallelism int
	// OnCell, if non-nil, receives one event per assembled figure cell,
	// in deterministic presentation order (after all cells have run).
	OnCell func(CellEvent)
	// Progress, if non-nil, is called as cells complete with running
	// counts. Calls are serialized but arrive in completion order, which
	// is nondeterministic under parallelism.
	Progress func(done, total, cacheHits int)

	// Supervision. These bound how badly one cell can hurt a sweep; all
	// are harness configuration and never feed spec keys.

	// CellTimeout bounds the host wall-clock time of one cell attempt;
	// 0 disables the watchdog. A timed-out attempt's goroutine is
	// abandoned (goroutines cannot be killed), so pair CellTimeout with
	// Budget to also stop the abandoned simulation from consuming CPU.
	CellTimeout time.Duration
	// MaxAttempts bounds execution attempts per cell for retryable
	// failures (livelock, timeout); panics and model errors always fail
	// fast. 0 or 1 means a single attempt.
	MaxAttempts int
	// RetryBackoff is the base host delay before a retry, doubled per
	// subsequent attempt; 0 selects DefaultRetryBackoff.
	RetryBackoff time.Duration
	// Budget bounds each cell's DES run (zero = unlimited). Exhaustion
	// surfaces as a retryable livelock failure carrying the hottest
	// Procs of the runaway simulation.
	Budget des.Budget
	// Store, if non-nil, persists every successful cell result and is
	// consulted before execution (after the in-memory memo cache), so a
	// killed sweep resumes where it died.
	Store *Store

	// Sharded-DES configuration, consumed by the "scale" figure only.

	// Shards is the DES shard count for scale cells; 0 selects
	// DefaultScaleShards. Part of each cell's identity: results are
	// bit-identical for a fixed shard count (and Elapsed for any).
	Shards int
	// SpillDir, when non-empty, streams scale-cell trace arenas to spill
	// files under this directory, bounding resident trace memory.
	SpillDir string
	// SpillThreshold is the per-shard resident event count that triggers
	// a spill; 0 selects DefaultSpillThreshold. Harness configuration,
	// never part of spec keys.
	SpillThreshold int
}

func (o Options) machine() *machine.Config {
	if o.Machine != nil {
		return o.Machine
	}
	return machine.MustNew("ibm-power3")
}

func (o Options) seed() uint64 {
	if o.Seed == 0 && !o.SeedSet {
		return DefaultSeed
	}
	return o.Seed
}

func (o Options) cap(cpus []int) []int {
	if o.MaxCPUs <= 0 {
		return cpus
	}
	out := cpus[:0:0]
	for _, c := range cpus {
		if c <= o.MaxCPUs {
			out = append(out, c)
		}
	}
	return out
}

// mpiCPUs is the processor sweep of Section 4.2 for MPI applications.
var mpiCPUs = []int{1, 2, 4, 8, 16, 32, 64}

// ompCPUs is the sweep for Umt98, restricted to one SMP node.
var ompCPUs = []int{1, 2, 4, 8}

// hybridCPUs is the sweep for the Section 5.1 hybrid runs.
var hybridCPUs = []int{2, 4, 8, 16}

// cpusFor returns the evaluated CPU counts for an application, including
// the paper's omissions (no 1-CPU Sweep3d run).
func cpusFor(app *guide.App) []int {
	switch {
	case app.Name == "sweep3d":
		return mpiCPUs[1:]
	case !app.Lang.IsMPI():
		return ompCPUs
	default:
		return mpiCPUs
	}
}

// planFig7 enumerates one panel of Figure 7: the execution time of every
// instrumentation policy across the processor sweep for the named
// application.
func planFig7(appName string, opts Options) (*figurePlan, error) {
	app, err := apps.Get(appName)
	if err != nil {
		return nil, err
	}
	plan := &figurePlan{fig: &Figure{
		Title:  fmt.Sprintf("Execution time of instrumented versions of %s", app.Name),
		XLabel: "CPUs",
		YLabel: "Time (s)",
	}}
	for si, p := range PoliciesFor(app) {
		plan.fig.Series = append(plan.fig.Series, Series{Label: p.String()})
		for _, cpus := range opts.cap(cpusFor(app)) {
			plan.cells = append(plan.cells, planCell{
				series: si,
				cpus:   cpus,
				desc:   fmt.Sprintf("%s/%s/%d CPUs", appName, p, cpus),
				spec:   RunSpec{App: appName, Policy: p, CPUs: cpus, Machine: opts.Machine, Seed: opts.seed()},
				value:  func(v any) float64 { return v.(Result).Elapsed.Seconds() },
			})
		}
	}
	return plan, nil
}

// confSyncCPUs is the processor sweep of Figure 8 (a) and (b).
var confSyncCPUs = []int{2, 4, 8, 16, 32, 64, 128, 256, 512}

// ia32CPUs is the sweep of Figure 8 (c): 2..16 on the IA32 cluster.
var ia32CPUs = []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// confSyncValue extracts the plotted mean from a probe cell result.
func confSyncValue(v any) float64 { return v.(ConfSyncResult).Mean.Seconds() }

// planFig8a enumerates Figure 8(a): VT_confsync cost on the IBM system
// with and without configuration changes, averaged over 16 calls.
func planFig8a(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{
		Title:  "Time for VT_confsync on IBM",
		XLabel: "Number of Processors",
		YLabel: "Time (s)",
	}}
	for si, variant := range []struct {
		label   string
		changes int
	}{{"No Change", 0}, {"Changes", 8}} {
		plan.fig.Series = append(plan.fig.Series, Series{Label: variant.label})
		for _, cpus := range opts.cap(confSyncCPUs) {
			plan.cells = append(plan.cells, planCell{
				series: si,
				cpus:   cpus,
				desc:   fmt.Sprintf("fig8a %s/%d CPUs", variant.label, cpus),
				spec:   ConfSyncSpec{Machine: opts.Machine, CPUs: cpus, Changes: variant.changes, Seed: opts.seed()},
				value:  confSyncValue,
			})
		}
	}
	return plan, nil
}

// planFig8b enumerates Figure 8(b): VT_confsync used to synchronise
// runtime generation of statistical data on the IBM system.
func planFig8b(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{
		Title:  "Time to write statistics on IBM",
		XLabel: "Number of Processors",
		YLabel: "Time (s)",
	}}
	plan.fig.Series = append(plan.fig.Series, Series{Label: "Statistics"})
	for _, cpus := range opts.cap(confSyncCPUs) {
		plan.cells = append(plan.cells, planCell{
			series: 0,
			cpus:   cpus,
			desc:   fmt.Sprintf("fig8b %d CPUs", cpus),
			spec:   ConfSyncSpec{Machine: opts.Machine, CPUs: cpus, WriteStats: true, Seed: opts.seed()},
			value:  confSyncValue,
		})
	}
	return plan, nil
}

// planFig8c enumerates Figure 8(c): VT_confsync on the Intel IA32 Linux
// cluster, demonstrating "that the synchronization API has similar
// behavior between two different processor architectures".
func planFig8c(opts Options) (*figurePlan, error) {
	mach := machine.MustNew("ia32-linux")
	plan := &figurePlan{fig: &Figure{
		Title:  "Time for VT_confsync on IA32",
		XLabel: "Number of Processors",
		YLabel: "Time (s)",
	}}
	plan.fig.Series = append(plan.fig.Series, Series{Label: "No Change"})
	for _, cpus := range opts.cap(ia32CPUs) {
		plan.cells = append(plan.cells, planCell{
			series: 0,
			cpus:   cpus,
			desc:   fmt.Sprintf("fig8c %d CPUs", cpus),
			spec:   ConfSyncSpec{Machine: mach, CPUs: cpus, Seed: opts.seed()},
			value:  confSyncValue,
		})
	}
	return plan, nil
}

// fig9Args shrinks each application's deck: Figure 9 measures dynprof's
// create+instrument time, which depends on the function counts and the
// job size, not on how long the main computation runs.
var fig9Args = map[string]map[string]int{
	"smg98":   {"nx": 6, "ny": 6, "nz": 8, "iters": 1},
	"sppm":    {"nx": 6, "ny": 6, "nz": 6, "steps": 1},
	"sweep3d": {"nx": 64, "ny": 4, "nz": 4, "iters": 1},
	"umt98":   {"zones": 64, "angles": 8, "iters": 1},
}

// planFig9 enumerates Figure 9: the time used by dynprof to create and
// instrument each ASCI kernel across the processor sweep. The Umt98 line
// stays flat: "there is only a single OpenMP process to instrument".
func planFig9(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{
		Title:  "Time to create and instrument",
		XLabel: "CPUs",
		YLabel: "Time (s)",
	}}
	for si, name := range apps.Names() {
		app, err := apps.Get(name)
		if err != nil {
			return nil, err
		}
		plan.fig.Series = append(plan.fig.Series, Series{Label: app.Name})
		for _, cpus := range opts.cap(cpusFor(app)) {
			plan.cells = append(plan.cells, planCell{
				series: si,
				cpus:   cpus,
				desc:   fmt.Sprintf("fig9 %s/%d", name, cpus),
				spec:   RunSpec{App: name, Policy: Dynamic, CPUs: cpus, Machine: opts.Machine, Args: fig9Args[name], Seed: opts.seed()},
				value:  func(v any) float64 { return v.(Result).CreateAndInstrument.Seconds() },
			})
		}
	}
	return plan, nil
}

// planHybrid enumerates the Section 5.1 hybrid comparison: Sppm runs with
// and without dynamically inserted VT_confsync safe points, across a
// small processor sweep.
func planHybrid(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{
		Title:  "Hybrid: dynamically inserted VT_confsync points (Sppm)",
		XLabel: "CPUs",
		YLabel: "Time (s)",
	}}
	for si, variant := range []struct {
		label  string
		points bool
	}{{"plain", false}, {"confsync-points", true}} {
		plan.fig.Series = append(plan.fig.Series, Series{Label: variant.label})
		for _, cpus := range opts.cap(hybridCPUs) {
			plan.cells = append(plan.cells, planCell{
				series: si,
				cpus:   cpus,
				desc:   fmt.Sprintf("hybrid %s/%d CPUs", variant.label, cpus),
				spec:   HybridSpec{WithPoints: variant.points, CPUs: cpus, Machine: opts.Machine, Seed: opts.seed()},
				value:  func(v any) float64 { return v.(HybridResult).Elapsed.Seconds() },
			})
		}
	}
	return plan, nil
}

// faultRates is the sweep of the fault-injection figure, in percent.
var faultRates = []int{0, 10, 20, 40}

// faultPlanAt scales the canonical degradation scenario to one intensity:
// one slowed node, one stalled node and stretched control latency, all
// proportional to pct. Zero intensity is the fault-free machine, so that
// cell shares its key (and memo entry) with the ordinary figures.
func faultPlanAt(pct int) *fault.Plan {
	if pct <= 0 {
		return nil
	}
	f := float64(pct) / 100
	return &fault.Plan{
		Slowdowns: []fault.Slowdown{{Node: 0, Factor: 1 + f}},
		Stalls: []fault.Stall{
			{Node: 1, At: 5 * des.Millisecond, Duration: des.Time(f * float64(40*des.Millisecond))},
		},
		CtrlDelayFactor: 1 + 4*f,
	}
}

// planFaults enumerates the fault-injection sweep: the execution time of
// an instrumented application run and the VT_confsync cost as the fault
// intensity grows. The x coordinate is the intensity in percent.
func planFaults(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{
		Title:  "Instrumented run and VT_confsync under injected faults",
		XLabel: "Fault intensity (%)",
		YLabel: "Time (s)",
	}}
	plan.fig.Series = append(plan.fig.Series,
		Series{Label: "smg98-full-8cpu"}, Series{Label: "confsync-32"})
	for _, pct := range faultRates {
		mach := opts.machine().WithFaultPlan(faultPlanAt(pct))
		plan.cells = append(plan.cells, planCell{
			series: 0,
			cpus:   pct,
			desc:   fmt.Sprintf("faults app/%d%%", pct),
			spec:   RunSpec{App: "smg98", Policy: Full, CPUs: 8, Machine: mach, Seed: opts.seed()},
			value:  func(v any) float64 { return v.(Result).Elapsed.Seconds() },
		})
		plan.cells = append(plan.cells, planCell{
			series: 1,
			cpus:   pct,
			desc:   fmt.Sprintf("faults confsync/%d%%", pct),
			spec:   ConfSyncSpec{Machine: mach, CPUs: 32, Changes: 8, Seed: opts.seed()},
			value:  confSyncValue,
		})
	}
	return plan, nil
}
