// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Each sub-benchmark runs one cell of an
// experiment (application x policy x CPU count) inside the deterministic
// simulation and reports the virtual execution time as the "sim_s" metric
// — the value the corresponding figure plots. Host ns/op measures the
// simulator, sim_s reproduces the paper.
//
// The CPU sweeps here are trimmed to keep the default benchmark run
// manageable; cmd/experiments regenerates the full-range figures.
package bench

import (
	"fmt"
	"testing"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/exp"
	"dynprof/internal/guide"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// cell runs one (app, policy, cpus) experiment cell b.N times.
func cell(b *testing.B, appName string, policy exp.PolicySpec, cpus int, args map[string]int) {
	b.Helper()
	spec := exp.RunSpec{App: appName, Policy: policy, CPUs: cpus, Args: args, Seed: exp.DefaultSeed}
	var last exp.Result
	var err error
	for i := 0; i < b.N; i++ {
		last, err = exp.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Elapsed.Seconds(), "sim_s")
	b.ReportMetric(float64(last.TraceBytes), "trace_B")
	if policy == exp.Dynamic {
		b.ReportMetric(last.CreateAndInstrument.Seconds(), "instr_s")
	}
}

// fig7 runs one panel of Figure 7 over a trimmed CPU sweep.
func fig7(b *testing.B, appName string, cpuList []int) {
	app, err := apps.Get(appName)
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range exp.PoliciesFor(app) {
		for _, cpus := range cpuList {
			policy, cpus := policy, cpus
			b.Run(fmt.Sprintf("%s/%dcpu", policy, cpus), func(b *testing.B) {
				cell(b, appName, policy, cpus, nil)
			})
		}
	}
}

// BenchmarkFig7aSmg98 reproduces Figure 7(a): the execution time of the
// instrumented versions of Smg98.
func BenchmarkFig7aSmg98(b *testing.B) { fig7(b, "smg98", []int{1, 4, 16}) }

// BenchmarkFig7bSppm reproduces Figure 7(b).
func BenchmarkFig7bSppm(b *testing.B) { fig7(b, "sppm", []int{1, 4, 16}) }

// BenchmarkFig7cSweep3d reproduces Figure 7(c) (no 1-CPU run exists).
func BenchmarkFig7cSweep3d(b *testing.B) { fig7(b, "sweep3d", []int{2, 4, 16}) }

// BenchmarkFig7dUmt98 reproduces Figure 7(d) (OpenMP: one node, 1-8 CPUs).
func BenchmarkFig7dUmt98(b *testing.B) { fig7(b, "umt98", []int{1, 2, 4, 8}) }

// BenchmarkFig8aConfSync reproduces Figure 8(a): VT_confsync cost on the
// IBM system, with and without configuration changes.
func BenchmarkFig8aConfSync(b *testing.B) {
	for _, variant := range []struct {
		name    string
		changes int
	}{{"NoChange", 0}, {"Changes", 8}} {
		for _, cpus := range []int{2, 64, 512} {
			variant, cpus := variant, cpus
			b.Run(fmt.Sprintf("%s/%dcpu", variant.name, cpus), func(b *testing.B) {
				spec := exp.ConfSyncSpec{CPUs: cpus, Changes: variant.changes, Seed: exp.DefaultSeed}
				var res exp.ConfSyncResult
				for i := 0; i < b.N; i++ {
					var err error
					res, err = exp.RunConfSync(spec)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Mean.Seconds(), "sim_s")
			})
		}
	}
}

// BenchmarkFig8bStatistics reproduces Figure 8(b): VT_confsync used for
// runtime generation of statistical data.
func BenchmarkFig8bStatistics(b *testing.B) {
	for _, cpus := range []int{2, 64, 512} {
		cpus := cpus
		b.Run(fmt.Sprintf("%dcpu", cpus), func(b *testing.B) {
			spec := exp.ConfSyncSpec{CPUs: cpus, WriteStats: true, Seed: exp.DefaultSeed}
			var res exp.ConfSyncResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = exp.RunConfSync(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Mean.Seconds(), "sim_s")
		})
	}
}

// BenchmarkFig8cIA32 reproduces Figure 8(c): VT_confsync on the Intel IA32
// Linux cluster.
func BenchmarkFig8cIA32(b *testing.B) {
	for _, cpus := range []int{2, 8, 16} {
		cpus := cpus
		b.Run(fmt.Sprintf("%dcpu", cpus), func(b *testing.B) {
			spec := exp.ConfSyncSpec{Machine: machine.MustNew("ia32-linux"), CPUs: cpus, Seed: exp.DefaultSeed}
			var res exp.ConfSyncResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = exp.RunConfSync(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Mean.Seconds(), "sim_s")
		})
	}
}

// BenchmarkFig9CreateAndInstrument reproduces Figure 9: the time used by
// dynprof to create and instrument each application.
func BenchmarkFig9CreateAndInstrument(b *testing.B) {
	decks := map[string]map[string]int{
		"smg98":   {"nx": 6, "ny": 6, "nz": 8, "iters": 1},
		"sppm":    {"nx": 6, "ny": 6, "nz": 6, "steps": 1},
		"sweep3d": {"nx": 64, "ny": 4, "nz": 4, "iters": 1},
		"umt98":   {"zones": 64, "angles": 8, "iters": 1},
	}
	cpusFor := map[string][]int{
		"smg98":   {1, 16},
		"sppm":    {1, 16},
		"sweep3d": {2, 16},
		"umt98":   {1, 8},
	}
	for _, name := range apps.Names() {
		for _, cpus := range cpusFor[name] {
			name, cpus := name, cpus
			b.Run(fmt.Sprintf("%s/%dcpu", name, cpus), func(b *testing.B) {
				spec := exp.RunSpec{App: name, Policy: exp.Dynamic, CPUs: cpus, Args: decks[name], Seed: exp.DefaultSeed}
				var last exp.Result
				for i := 0; i < b.N; i++ {
					var err error
					last, err = exp.Run(spec)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(last.CreateAndInstrument.Seconds(), "sim_s")
			})
		}
	}
}

// BenchmarkTable2Apps runs each ASCI kernel uninstrumented on 4 CPUs —
// Table 2's application set as a baseline suite.
func BenchmarkTable2Apps(b *testing.B) {
	for _, name := range apps.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			cell(b, name, exp.None, 4, nil)
		})
	}
}

// BenchmarkTable3Policies runs Smg98 on 4 CPUs under every Table 3 policy.
func BenchmarkTable3Policies(b *testing.B) {
	for _, policy := range exp.AllPolicies() {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			cell(b, "smg98", policy, 4, nil)
		})
	}
}

// --- ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkTrampolineExecution measures the simulated-image cost of an
// unpatched call gate versus one displaced into a base+mini trampoline
// chain (the Figure 1 mechanism itself).
func BenchmarkTrampolineExecution(b *testing.B) {
	build := func(patched bool, chain int) *image.Image {
		bl := image.NewBuilder("micro")
		if _, err := bl.AddFunc(image.FuncSpec{Name: "f", BodyWords: 16, Exits: 1}); err != nil {
			b.Fatal(err)
		}
		img := bl.Build()
		if patched {
			sym := img.MustLookup("f")
			id := img.NewSnippetID()
			img.BindSnippet(id, func(ec image.ExecCtx) {})
			for i := 0; i < chain; i++ {
				h, err := img.InsertProbe(sym, image.EntryPoint, 0, id)
				if err != nil {
					b.Fatal(err)
				}
				h.SetActive(true)
			}
		}
		return img
	}
	ctx := &nullExecCtx{}
	for _, cfg := range []struct {
		name    string
		patched bool
		chain   int
	}{{"pristine", false, 0}, {"patched-1", true, 1}, {"patched-4", true, 4}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			img := build(cfg.patched, cfg.chain)
			sym := img.MustLookup("f")
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = img.ExecEntry(sym, ctx)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

type nullExecCtx struct{}

func (*nullExecCtx) ThreadID() int    { return 0 }
func (*nullExecCtx) Now() des.Time    { return 0 }
func (*nullExecCtx) Charge(cyc int64) {}

// BenchmarkProbeInsertRemove measures patch/unpatch round trips on a
// 199-function image (dynprof's per-function insertion cost, host-side).
func BenchmarkProbeInsertRemove(b *testing.B) {
	app, err := apps.Get("smg98")
	if err != nil {
		b.Fatal(err)
	}
	bin, err := guide.Build(app, guide.BuildOpts{})
	if err != nil {
		b.Fatal(err)
	}
	col := vt.NewCollector()
	v := vt.NewCtx(vt.Options{Rank: 0, Collector: col})
	v.Initialize(nil)
	s := des.NewScheduler(1)
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: 1, Hold: true})
	if err != nil {
		b.Fatal(err)
	}
	img := j.Processes()[0].Image()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range app.Subset {
			sym := img.MustLookup(f)
			id := img.NewSnippetID()
			img.BindSnippet(id, v.BeginSnippet(v.FuncDef(f)))
			h, err := img.InsertProbe(sym, image.EntryPoint, 0, id)
			if err != nil {
				b.Fatal(err)
			}
			h.SetActive(true)
			if err := h.Remove(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHybridConfSyncPoints measures the Section 5.1 hybrid: the cost
// of a run whose safe points were inserted dynamically at startup,
// against the same run without them.
func BenchmarkHybridConfSyncPoints(b *testing.B) {
	for _, hybrid := range []bool{false, true} {
		hybrid := hybrid
		name := "plain"
		if hybrid {
			name = "confsync-points"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed des.Time
			for i := 0; i < b.N; i++ {
				elapsed = runHybrid(b, hybrid)
			}
			b.ReportMetric(elapsed.Seconds(), "sim_s")
		})
	}
}

func runHybrid(b *testing.B, withPoints bool) des.Time {
	b.Helper()
	res, err := exp.RunHybrid(exp.HybridSpec{WithPoints: withPoints, Seed: exp.DefaultSeed})
	if err != nil {
		b.Fatal(err)
	}
	return res.Elapsed
}

// BenchmarkRunnerFigures measures the exp.Runner scheduling a whole
// figure's cell work-list, sequentially versus on a GOMAXPROCS-wide
// worker pool (the output is byte-identical either way; only host
// wall-clock differs).
func BenchmarkRunnerFigures(b *testing.B) {
	for _, cfg := range []struct {
		name        string
		parallelism int
	}{{"seq", 1}, {"par", 0}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh Runner per iteration: the memo cache would
				// otherwise absorb all work after the first pass.
				r := exp.NewRunner(exp.Options{MaxCPUs: 8, Parallelism: cfg.parallelism})
				if _, err := r.Figures("fig7a", "fig8a"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdapt runs the budget-5% adaptive cell on each kernel: the
// feedback controller riding VT_confsync epochs (DESIGN.md §15). sim_s is
// the instrumented run's virtual time; epochs counts controller steps;
// ms_epoch is the host cost of one controller epoch (measure + step +
// change distribution, amortised); events_s is recorded instrumentation
// events per host second at the converged budget.
func BenchmarkAdapt(b *testing.B) {
	for _, name := range apps.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			spec := exp.AdaptSpec{App: name, Budget: 0.05, Seed: exp.DefaultSeed}
			var last exp.AdaptResult
			for i := 0; i < b.N; i++ {
				var err error
				last, err = exp.RunAdapt(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Elapsed.Seconds(), "sim_s")
			b.ReportMetric(float64(last.Epochs), "epochs")
			b.ReportMetric(last.Achieved*100, "overhead_pct")
			b.ReportMetric(last.Retained*100, "retained_pct")
			host := b.Elapsed().Seconds()
			if n := b.N * last.Epochs; n > 0 && host > 0 {
				b.ReportMetric(host/float64(n)*1e3, "ms_epoch")
				b.ReportMetric(float64(last.Events)*float64(b.N)/host, "events_s")
			}
		})
	}
}
