package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks a workload so that a self-test runs it in about a
// second. traced runs get a longer budget so the CPU profile has samples.
func tinyConfig(t *testing.T, name string, traced bool) *config {
	t.Helper()
	budget := 200 * time.Millisecond
	if traced {
		budget = 1500 * time.Millisecond
	}
	cfg := defaultConfig(11, budget)
	switch name {
	case "paper-figures":
		cfg.figures = []string{"fig7d", "fig8c"}
		cfg.setupSamples = 3
		g, err := loadGolden("../experiments_output.txt")
		if err != nil {
			t.Fatal(err)
		}
		cfg.golden = g
	case "serve-tcp":
		cfg.serveSessions = 10
	case "trace-pipeline":
		cfg.pipeRanks = 4
		cfg.pipeArgs = map[string]map[string]int{
			"smg98":   {"nx": 6, "ny": 6, "nz": 8, "iters": 1},
			"sppm":    {"nx": 6, "ny": 6, "nz": 6, "steps": 1},
			"sweep3d": {"nx": 64, "ny": 4, "nz": 4, "iters": 1},
			"umt98":   {"zones": 64, "angles": 8, "iters": 1},
		}
	default:
		t.Fatalf("no tiny size for workload %q", name)
	}
	return cfg
}

// declared reads the metric names of one section of BENCHMARK.json.
func declared(t *testing.T, section string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	return names
}

func emitted(res result) []string {
	var names []string
	for n, m := range res.Metrics {
		names = append(names, n+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// layerWork lists, per workload, per-layer metrics that must be nonzero:
// each workload has to exercise the layers README.md says it loads.
var layerWork = map[string][]string{
	"paper-figures":  {"cpu.apps", "exp.figure.fig7d_s", "exp.cell_p90_ms", "exp.cells", "exp.runs", "exp.virtual_s"},
	"serve-tcp":      {"cpu.des", "des.events", "serve.insert.p99_ms", "serve.list.p50_ms", "serve.admitted", "serve.evicted", "serve.sim_s_per_op", "proc.calls"},
	"trace-pipeline": {"cpu.vt", "guide.build_s", "vt.write_s.compact", "vt.read_s.verbatim", "vt.bytes_per_event.compact", "vt.events", "vgv.render_s", "proc.instr_cycles"},
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	wantE2E, wantLayer := declared(t, "end_to_end"), declared(t, "per_layer")
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := measure(workloads[name], tinyConfig(t, name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got := emitted(res); strings.Join(got, ",") != strings.Join(wantE2E, ",") {
				t.Errorf("end-to-end metrics\n got %v\nwant %v", got, wantE2E)
			}
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}

			res, err = measureTraced(workloads[name], tinyConfig(t, name, true), t.TempDir()+"/spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got := emitted(res); strings.Join(got, ",") != strings.Join(wantLayer, ",") {
				t.Errorf("per-layer metrics\n got %v\nwant %v", got, wantLayer)
			}
			for _, n := range layerWork[name] {
				if res.Metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
				}
			}
		})
	}
}

func TestInjectedFaultsRaiseFailFrac(t *testing.T) {
	for _, tc := range []struct {
		workload string
		inject   func(*faults)
	}{
		{"paper-figures", func(f *faults) { f.flipGolden = true }},
		{"serve-tcp", func(f *faults) { f.forgeReply = 3 }},
		{"trace-pipeline", func(f *faults) { f.truncateTrace = true }},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			cfg := tinyConfig(t, tc.workload, false)
			tc.inject(&cfg.faults)
			res, err := measure(workloads[tc.workload], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("fault not counted: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess1", "dynprof/internal/image.(*Image).exec", "dynprof/internal/proc.(*Thread).Call"}, "image"},
		{[]string{"math.Sqrt", "dynprof/internal/apps/smg98.relax"}, "apps"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{[]string{"main.(*client).do", "fmt.Fprintf"}, "other"},
		// A package cpuLayers does not list keeps its name, so the shares
		// of a profile with such samples do not sum to 1.
		{[]string{"dynprof/internal/newlayer.(*T).Run", "dynprof/internal/exp.(*Runner).Figure"}, "newlayer"},
	} {
		if got := classify(tc.frames); got != tc.want {
			t.Errorf("classify(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

func TestCheckSections(t *testing.T) {
	golden := []byte("# Table 1\na\n\n# Figure 7(a)\nb\n\n")
	for _, tc := range []struct {
		name  string
		got   string
		whole bool
		fail  bool
	}{
		{"whole sweep matches", string(golden), true, false},
		{"subset matches", "# Figure 7(a)\nb\n\n", false, false},
		{"section missing from the sweep", "# Table 1\na\n\n", true, true},
		{"section differs", "# Figure 7(a)\nc\n\n", false, true},
		{"section not in the golden output", "# Figure 9\nb\n\n", false, true},
	} {
		o := newOutcome()
		checkSections(o, []byte(tc.got), golden, tc.whole)
		if fail := o.failed > 0; fail != tc.fail || o.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, want a failure: %v", tc.name, o.attempted, o.failed, tc.fail)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "no-such-workload"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

func TestQuantile(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*math.Max(1, math.Abs(want)) }
	if got := quantile([]float64{5, 1, 4, 2, 3}, 0.5); !near(got, 3) {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	// Two equal clusters: the median is their midpoint, by symmetry.
	if got := quantile([]float64{10, 10, 10, 10, 1000, 1000, 1000, 1000}, 0.5); !near(got, 505) {
		t.Errorf("median of two clusters = %v, want 505", got)
	}
	big := make([]float64, 100001)
	for i := range big {
		big[i] = float64(i)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := quantile(big, q), q*float64(len(big)-1); math.Abs(got-want) > 2 {
			t.Errorf("quantile(0..100000, %v) = %v, want about %v", q, got, want)
		}
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}
