// Package exp is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (Sections 4 and 5) as deterministic
// simulation runs, producing labelled data series that the cmd/experiments
// tool and the repository's benchmarks render.
package exp

import (
	"fmt"
	"strings"

	"dynprof/internal/adapt"
	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/vt"
)

// PolicySpec is a first-class instrumentation policy: what Table 3 lists
// as a closed enumeration is an open interface, so a policy can carry
// parameters (Adaptive's budget) and its own execution strategy. The
// interface is sealed — run is unexported because cell execution belongs
// to the harness — but every policy is addressable by its canonical Key,
// which feeds RunSpec.Key and the result journal exactly as the static
// names always did.
type PolicySpec interface {
	// Key canonicalises the policy: two policies with equal keys describe
	// the same deterministic run. Static policies use their Table 3 names
	// ("Full", "Full-Off", ...), so pre-existing spec keys are unchanged.
	Key() string
	// Description reproduces (or extends) Table 3's description column.
	Description() string
	// BuildOpts maps the policy to its compile-time configuration.
	BuildOpts(app *guide.App) guide.BuildOpts
	// run executes one experiment cell under this policy.
	run(spec RunSpec, app *guide.App, bud des.Budget) (Result, error)
}

// StaticPolicy is one of Table 3's five static instrumentation policies:
// the configuration is fixed before the run and never changes.
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

// Key canonicalises the policy for spec keys; identical to the Table 3
// name, so keys minted before the PolicySpec interface still match.
func (p StaticPolicy) Key() string { return string(p) }

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
	res := Result{App: app.Name, Policy: p.Key(), CPUs: spec.CPUs}
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

// Adaptive is the feedback policy the paper could only gesture at: the
// target is fully instrumented, a sync point is dynamically inserted at
// the application's declared safe point, and the internal/adapt controller
// deactivates (and re-inserts) probes every epoch to hold the removable
// instrumentation overhead at Budget.
type Adaptive struct {
	// Budget is the target removable-overhead fraction (e.g. 0.05).
	Budget float64
	// Epoch is the number of sync-point crossings folded into one
	// controller epoch (0 = 1).
	Epoch int
}

func (a Adaptive) norm() Adaptive {
	if a.Epoch == 0 {
		a.Epoch = 1
	}
	return a
}

// Key canonicalises the policy, parameters included: two Adaptive values
// with the same budget and epoch length share cells.
func (a Adaptive) Key() string {
	n := a.norm()
	return fmt.Sprintf("Adaptive(budget=%g,epoch=%d)", n.Budget, n.Epoch)
}

// String names the policy for labels and logs.
func (a Adaptive) String() string { return a.Key() }

// Description extends Table 3's column.
func (a Adaptive) Description() string {
	return fmt.Sprintf("All functions are statically instrumented; a feedback controller deactivates the most expensive probes each sync epoch to hold overhead at %.0f%%.", a.Budget*100)
}

// BuildOpts instruments everything: the controller needs probes to shed.
func (a Adaptive) BuildOpts(*guide.App) guide.BuildOpts {
	return guide.BuildOpts{TraceMPI: true, TraceOMP: true, StaticInstrument: true}
}

// run executes one adaptive cell through the shared dynprof-session path.
func (a Adaptive) run(spec RunSpec, app *guide.App, bud des.Budget) (Result, error) {
	res, _, err := a.session(spec, app, bud)
	return res, err
}

// session runs spec (whose Policy is a) as a dynprof session with the
// adapt controller attached before start, and summarises the controller.
func (a Adaptive) session(spec RunSpec, app *guide.App, bud des.Budget) (Result, adapt.Summary, error) {
	n := a.norm()
	var rt *adapt.Runtime
	res, err := runSession(spec, app, bud, nil, func(p *des.Proc, ss *core.Session) error {
		var err error
		if rt, err = adapt.Attach(p, ss, adapt.Config{Budget: n.Budget, EpochEvery: n.Epoch}); err != nil {
			return err
		}
		ss.Start(p)
		ss.Quit(p)
		return nil
	})
	if err != nil {
		return res, adapt.Summary{}, err
	}
	return res, rt.Summary(), nil
}

// Result is one measured run.
type Result struct {
	App string
	// Policy is the canonical policy key (PolicySpec.Key), e.g. "Full".
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
	res := Result{App: app.Name, Policy: spec.policy().Key(), CPUs: spec.CPUs}
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
