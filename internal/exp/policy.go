// Package exp is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (Sections 4 and 5) as deterministic
// simulation runs, producing labelled data series that the cmd/experiments
// tool and the repository's benchmarks render.
package exp

import (
	"fmt"
	"strings"

	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/vt"
)

// StaticPolicy is one of Table 3's five static instrumentation policies:
// the configuration is fixed before the run and never changes. The name
// is also the policy's fragment of a RunSpec key.
type StaticPolicy string

// The instrumentation policies of Table 3.
const (
	// Full: all functions are statically instrumented.
	Full StaticPolicy = "Full"
	// FullOff: all functions are statically instrumented but disabled
	// using the configuration file.
	FullOff StaticPolicy = "Full-Off"
	// Subset: all functions are statically instrumented with only an
	// important subset left active.
	Subset StaticPolicy = "Subset"
	// None: no subroutine instrumentation is inserted.
	None StaticPolicy = "None"
	// Dynamic: the dynprof tool is used to dynamically instrument the
	// same functions used by Subset.
	Dynamic StaticPolicy = "Dynamic"
)

// String names the policy as Table 3 does.
func (p StaticPolicy) String() string { return string(p) }

// Description reproduces Table 3's description column.
func (p StaticPolicy) Description() string {
	switch p {
	case Full:
		return "All functions are statically instrumented."
	case FullOff:
		return "All functions are statically instrumented but disabled using the configuration file."
	case Subset:
		return "All functions are statically instrumented with only an important subset left active."
	case None:
		return "No subroutine instrumentation is inserted."
	case Dynamic:
		return "The dynprof tool is used to dynamically instrument the same functions used by Subset."
	default:
		return ""
	}
}

// AllPolicies lists Table 3's policies in presentation order.
func AllPolicies() []StaticPolicy {
	return []StaticPolicy{Full, FullOff, Subset, None, Dynamic}
}

// PoliciesFor returns the policies evaluated for an application. Sweep3d
// has no Subset version: "since there are negligible differences ... we
// decided that a Subset version was unnecessary".
func PoliciesFor(app *guide.App) []StaticPolicy {
	if app.Name == "sweep3d" {
		return []StaticPolicy{Full, FullOff, None, Dynamic}
	}
	return AllPolicies()
}

// subsetConfig builds the VT configuration deactivating everything but the
// application's important subset.
func subsetConfig(app *guide.App) *vt.Config {
	var b strings.Builder
	b.WriteString("SYMBOL * OFF\n")
	for _, s := range app.Subset {
		fmt.Fprintf(&b, "SYMBOL %s ON\n", s)
	}
	return vt.MustParseConfig(b.String())
}

// BuildOpts maps the policy to its compile-time configuration. Dynamic
// builds the bare binary: dynprof adds everything at run time.
func (p StaticPolicy) BuildOpts(app *guide.App) guide.BuildOpts {
	if p == Dynamic {
		return guide.BuildOpts{}
	}
	opts := guide.BuildOpts{TraceMPI: true, TraceOMP: true}
	switch p {
	case Full:
		opts.StaticInstrument = true
	case FullOff:
		opts.StaticInstrument = true
		opts.Config = vt.MustParseConfig("SYMBOL * OFF\n")
	case Subset:
		opts.StaticInstrument = true
		opts.Config = subsetConfig(app)
	}
	return opts
}

// dynamicScript is the Dynamic policy's dynprof script: instrument the
// subset before the main computation (via insert-file, as Section 4.2
// describes), start the target and detach.
const dynamicScript = "insert-file subset.list\nstart\nquit\n"

// run executes one static-policy cell: Dynamic runs the subset script in
// a dynprof session; every other policy is a plain instrumented launch.
func (p StaticPolicy) run(spec RunSpec, app *guide.App, bud des.Budget) (Result, error) {
	res := Result{App: app.Name, Policy: p.String(), CPUs: spec.CPUs}
	switch p {
	case Full, FullOff, Subset, None, Dynamic:
	default:
		return res, fmt.Errorf("exp: unknown static policy %q", string(p))
	}
	if p == Dynamic {
		files := map[string]string{"subset.list": strings.Join(app.Subset, "\n")}
		return runSession(spec, app, bud, files, func(pr *des.Proc, ss *core.Session) error {
			return ss.RunScript(pr, strings.NewReader(dynamicScript))
		})
	}
	bin, err := guide.Build(app, p.BuildOpts(app))
	if err != nil {
		return res, err
	}
	s := des.NewScheduler(spec.Seed, des.WithBudget(bud))
	j, err := guide.Launch(s, spec.machine(), bin, guide.LaunchOpts{Procs: spec.CPUs, Args: spec.Args, CountOnly: true})
	if err != nil {
		return res, err
	}
	// The cell's trace collector dies with the cell: recycle its arena for
	// the next cell in the sweep.
	defer j.Collector().Release()
	if err := runScheduler(s); err != nil {
		return res, err
	}
	res.Elapsed = j.MainElapsed()
	for i := range j.Processes() {
		res.TraceBytes += j.VT(i).TraceBytes()
	}
	res.Faults = j.Faults()
	return res, nil
}

// Result is one measured run.
type Result struct {
	App string
	// Policy is the Table 3 policy name, e.g. "Full".
	Policy  string
	CPUs    int
	Elapsed des.Time
	// CreateAndInstrument is filled for Dynamic runs (Figure 9).
	CreateAndInstrument des.Time
	// TraceBytes is the volume of trace data the run produced.
	TraceBytes int
	// Faults is the run's structured fault-event stream, in time order;
	// empty when the machine carries no fault plan.
	Faults []fault.Event
}

func (r Result) elapsed() des.Time     { return r.Elapsed }
func (r Result) events() uint64        { return 0 }
func (r Result) faults() []fault.Event { return r.Faults }

// runSession is the one dynprof-session driver: every dynamically
// instrumented cell (the Dynamic policy of Figures 7 and 9, the Section
// 5.1 hybrid, the adaptive cells) spawns a Proc named dynprof, creates a
// session over app built with the spec policy's BuildOpts, runs body in
// it and drives the scheduler to completion. An aborted run (budget trip,
// proc panic) tears the session down host-side — even one aborted inside
// NewSession — and still reports the fault stream of a launched job. The
// result is read before the job's trace collector is released.
func runSession(spec RunSpec, app *guide.App, bud des.Budget, files map[string]string, body func(*des.Proc, *core.Session) error) (Result, error) {
	res := Result{App: app.Name, Policy: spec.policy().String(), CPUs: spec.CPUs}
	s := des.NewScheduler(spec.Seed, des.WithBudget(bud))
	var ss *core.Session
	var bodyErr error
	defer func() {
		if ss != nil && ss.Job() != nil {
			ss.Job().Collector().Release()
		}
	}()
	s.Spawn("dynprof", func(p *des.Proc) {
		_, bodyErr = core.NewSession(p, core.Config{
			Machine:   spec.machine(),
			App:       app,
			BuildOpts: spec.policy().BuildOpts(app),
			Procs:     spec.CPUs,
			Args:      spec.Args,
			CountOnly: true,
			Files:     files,
			OnSession: func(x *core.Session) { ss = x },
		})
		if bodyErr == nil {
			bodyErr = body(p, ss)
		}
	})
	if err := runScheduler(s); err != nil {
		if ss != nil {
			ss.Teardown()
			if ss.Job() != nil {
				res.Faults = ss.Faults()
			}
		}
		return res, err
	}
	if bodyErr != nil {
		return res, bodyErr
	}
	res.Elapsed = ss.Job().MainElapsed()
	res.CreateAndInstrument = ss.CreateAndInstrumentTime()
	for i := range ss.Job().Processes() {
		res.TraceBytes += ss.Job().VT(i).TraceBytes()
	}
	res.Faults = ss.Faults()
	return res, nil
}
