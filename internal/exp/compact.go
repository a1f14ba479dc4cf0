package exp

import (
	"fmt"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// This file implements the "compact" figure: the trace-volume cost
// of Full instrumentation across the four ASCI kernels, with the collector
// storing events verbatim versus with online redundancy suppression
// (vt.NewCompactCollector). The plotted metric is trace bytes per event —
// the budget the compact format shrinks. Collector host time is measured
// separately by the collector microbenchmarks in internal/vt: host
// timings are nondeterministic and would break the
// byte-identical-at-any-parallelism contract every figure obeys.

// compactApps lists the kernels of the compact figure, in presentation
// order; the point's x coordinate is the kernel's 1-based index here.
var compactApps = []string{"smg98", "sppm", "sweep3d", "umt98"}

// DefaultCompactProcs is the job size used when none is requested.
const DefaultCompactProcs = 4

// CompactSpec describes one compact-figure cell: a Full-instrumentation
// run of a kernel with the trace collected verbatim or suppressed.
type CompactSpec struct {
	// App is the kernel name (apps registry).
	App string
	// Procs is the job size (0 = DefaultCompactProcs).
	Procs int
	// Compact selects the redundancy-suppressing collector.
	Compact bool
	// Args overrides the application deck (nil = fig9Args' small deck).
	Args map[string]int
	// Machine is the simulated platform (nil = IBM Power3 preset).
	Machine *machine.Config
	// Seed fixes the simulation seed (used literally; 0 is valid).
	Seed uint64
}

// norm fills in the documented defaults.
func (s CompactSpec) norm() CompactSpec {
	if s.Procs == 0 {
		s.Procs = DefaultCompactProcs
	}
	if s.Args == nil {
		s.Args = fig9Args[s.App]
	}
	if s.Machine == nil {
		s.Machine = machine.MustNew("ibm-power3")
	}
	return s
}

// Key canonicalises the spec (defaults resolved first).
func (s CompactSpec) Key() string {
	n := s.norm()
	return fmt.Sprintf("compact|%s|procs=%d|compact=%t|%s|seed=%d|%s%s",
		n.App, n.Procs, n.Compact, n.Machine.Name, n.Seed, argsKey(n.Args), faultKey(n.Machine))
}

func (s CompactSpec) runCell(bud des.Budget) (cellResult, error) { return runCompactCell(s, bud) }

// CompactResult is one measured compact cell. Every field is a pure
// function of the simulation (no host timings), so the figure stays
// byte-identical at any parallelism and across resumes.
type CompactResult struct {
	App     string
	Compact bool
	// Elapsed is the virtual completion time of the run's main process.
	Elapsed des.Time
	// TraceEvents and TraceBytes measure the collected trace volume:
	// bytes are EventBytes per event verbatim, encoded payload bytes
	// under suppression.
	TraceEvents int
	TraceBytes  int
	// Records and Repeats count the encoded ops a suppressing collector
	// stored (zero verbatim): Records total, Repeats the parameterized
	// repeat records among them.
	Records int
	Repeats int
}

func (r CompactResult) elapsed() des.Time     { return r.Elapsed }
func (r CompactResult) events() uint64        { return uint64(r.TraceEvents) }
func (r CompactResult) faults() []fault.Event { return nil }

// BytesPerEvent is the figure's plotted metric.
func (r CompactResult) BytesPerEvent() float64 {
	if r.TraceEvents == 0 {
		return 0
	}
	return float64(r.TraceBytes) / float64(r.TraceEvents)
}

// RunCompact executes one compact cell without a budget.
func RunCompact(spec CompactSpec) (CompactResult, error) {
	return runCompactCell(spec, des.Budget{})
}

// runCompactCell runs one kernel at Full instrumentation into the
// requested collector flavour and measures the trace volume.
func runCompactCell(spec CompactSpec, bud des.Budget) (CompactResult, error) {
	spec = spec.norm()
	res := CompactResult{App: spec.App, Compact: spec.Compact}
	app, err := apps.Get(spec.App)
	if err != nil {
		return res, err
	}
	bin, err := guide.Build(app, Full.BuildOpts(app))
	if err != nil {
		return res, err
	}
	col := vt.NewCollector()
	if spec.Compact {
		col = vt.NewCompactCollector()
	}
	defer col.Release()
	s := des.NewScheduler(spec.Seed, des.WithBudget(bud))
	j, err := guide.Launch(s, spec.Machine, bin, guide.LaunchOpts{
		Procs:     spec.Procs,
		Args:      spec.Args,
		Collector: col,
	})
	if err != nil {
		return res, err
	}
	if err := runScheduler(s); err != nil {
		return res, err
	}
	res.Elapsed = j.MainElapsed()
	res.TraceEvents = col.Len()
	res.TraceBytes = col.Bytes()
	if spec.Compact {
		st := col.CompactStats()
		res.Records = st.Records
		res.Repeats = st.Repeats
	}
	return res, nil
}

// planCompact enumerates the compact figure: bytes per trace event for the
// verbatim and the suppressing collector, per kernel (x = 1-based kernel
// index in compactApps order).
func planCompact(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{
		Title:  "Trace bytes per event at Full instrumentation",
		XLabel: "Kernel",
		YLabel: "Bytes/event",
	}}
	for si, mode := range []struct {
		label   string
		compact bool
	}{
		{"verbatim", false},
		{"compact", true},
	} {
		plan.fig.Series = append(plan.fig.Series, Series{Label: mode.label})
		for ki, app := range compactApps {
			plan.cells = append(plan.cells, planCell{
				series: si,
				cpus:   ki + 1,
				desc:   fmt.Sprintf("compact %s/%s", app, mode.label),
				spec: CompactSpec{
					App: app, Compact: mode.compact,
					Machine: opts.Machine, Seed: opts.seed(),
				},
				value: func(v any) float64 { return v.(CompactResult).BytesPerEvent() },
			})
		}
	}
	return plan, nil
}
