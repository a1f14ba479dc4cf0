// Command perfbench is the repository's benchmark. It drives the
// simulator through its public Go API only, on one of three workloads
// that each load a different layer, checks every output, and prints one
// JSON result line:
//
//	perfbench --workload serve-tcp --seed 7 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload untraced and then traced (spans
// around each call into the program plus a CPU profile) and reports the
// per-layer metrics. README.md maps each metric to its layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Uint64("seed", 1, "workload seed (paper-figures ignores it: its golden output is fixed to exp.DefaultSeed)")
	seconds := fs.Float64("seconds", 30, "host seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := defaultConfig(*seed, time.Duration(*seconds*float64(time.Second)))
	if wl.needsGolden {
		g, err := loadGolden("experiments_output.txt")
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		cfg.golden = g
	}
	var res result
	var err error
	if *traced == 1 {
		res, err = measureTraced(wl, cfg, filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)))
	} else {
		res, err = measure(wl, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// workload is one traffic mix. round runs one unit of the workload's
// fixed work and adds what it saw to o; the harness repeats rounds until
// the time budget is spent.
type workload struct {
	round       func(cfg *config, o *outcome, n int) error
	needsGolden bool
	// warmUp runs one unmeasured round first, so heap growth and lazy
	// set-up are not timed. paper-figures has none: its one round is the
	// whole sweep.
	warmUp bool
}

var workloads = map[string]workload{
	"paper-figures":  {round: figuresRound, needsGolden: true},
	"serve-tcp":      {round: serveRound, warmUp: true},
	"trace-pipeline": {round: pipelineRound, warmUp: true},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// config is one run's inputs. The size fields default to the workload
// sizes BENCHMARK.json describes; the self-tests shrink them.
type config struct {
	seed   uint64
	budget time.Duration
	tr     *tracer // nil when tracing is off

	figures      []string // paper-figures: figure IDs, in -all order
	golden       []byte   // paper-figures: expected rendered output
	setupSamples int      // paper-figures: set-up measurements per run

	serveSessions int // serve-tcp: sessions per round, over all connections

	pipeRanks int                       // trace-pipeline: ranks (threads for umt98)
	pipeArgs  map[string]map[string]int // trace-pipeline: input deck overrides per kernel

	faults faults
}

// faults are deliberate defects the self-tests inject to prove that the
// correctness checks count them.
type faults struct {
	flipGolden    bool // flip one byte of the golden output
	forgeReply    int  // replace the n-th reply on the first connection (1-based) with an err line
	truncateTrace bool // drop the tail of every written trace file
}

// sweepFigures are the figures `experiments -all` renders, in its order.
var sweepFigures = []string{"fig7a", "fig7b", "fig7c", "fig7d", "fig8a", "fig8b", "fig8c", "fig9"}

func defaultConfig(seed uint64, budget time.Duration) *config {
	return &config{
		seed:          seed,
		budget:        budget,
		figures:       sweepFigures,
		setupSamples:  25,
		serveSessions: 100,
		pipeRanks:     8,
	}
}

// outcome accumulates what the rounds of one run measured.
type outcome struct {
	attempted, failed int

	wall  []float64 // host seconds per round
	setup []float64 // host seconds per set-up sample

	ops    int        // completed operations
	opSecs float64    // host seconds in which they completed
	opMS   *reservoir // host milliseconds per operation

	cellMS []float64            // paper-figures: executed-cell host times
	layer  map[string][]float64 // per-layer values, one per round
}

func newOutcome() *outcome {
	return &outcome{layer: map[string][]float64{}, opMS: newReservoir(1 << 16)}
}

// reservoir keeps a uniform random sample of at most a fixed number of
// values (Algorithm R). serve-tcp completes hundreds of thousands of ops
// in a run; keeping every latency would grow the benchmark's own heap
// through the run and show up in peak_rss_mb.
type reservoir struct {
	xs  []float64
	n   int
	rng *rand.Rand
}

func newReservoir(size int) *reservoir {
	return &reservoir{xs: make([]float64, 0, size), rng: rand.New(rand.NewPCG(1, 2))}
}

func (r *reservoir) add(x float64) {
	r.n++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, x)
	} else if j := r.rng.IntN(r.n); j < len(r.xs) {
		r.xs[j] = x
	}
}

// record adds one round's value of a per-layer metric.
func (o *outcome) record(name string, v float64) {
	o.layer[name] = append(o.layer[name], v)
}

func (o *outcome) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// warmUp runs the workload's unmeasured round, if it has one. Its checks
// still count.
func warmUp(wl workload, cfg *config, o *outcome) error {
	if !wl.warmUp {
		return nil
	}
	w := newOutcome()
	quiet := *cfg
	quiet.tr = nil
	err := wl.round(&quiet, w, 0)
	o.attempted += w.attempted
	o.failed += w.failed
	return err
}

// runRounds repeats the workload's round while another round of the
// length of the last one fits in the budget. It always runs one. Each
// round starts after a full collection, so it pays for its own garbage
// and not for the previous round's.
func runRounds(wl workload, cfg *config, o *outcome) error {
	start := time.Now()
	for n := 0; ; n++ {
		runtime.GC()
		t := time.Now()
		if err := wl.round(cfg, o, n); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t) > cfg.budget {
			return nil
		}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(o *outcome) result {
	return result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
}

// measure is an untraced run: it reports the end-to-end metrics.
func measure(wl workload, cfg *config) (result, error) {
	o := newOutcome()
	if err := warmUp(wl, cfg, o); err != nil {
		return result{}, err
	}
	if err := runRounds(wl, cfg, o); err != nil {
		return result{}, err
	}
	res := newResult(o)
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: m.value(o), Unit: m.unit}
	}
	return res, nil
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order. Every
// workload defines each of them; an "op" is a figure cell, a protocol
// command or one kernel's record-to-render trace pass.
var endToEnd = []struct {
	name, unit string
	value      func(o *outcome) float64
}{
	{"wall_s", "s", func(o *outcome) float64 { return median(o.wall) }},
	{"setup_s", "s", func(o *outcome) float64 { return median(o.setup) }},
	{"peak_rss_mb", "MB", func(*outcome) float64 { return peakRSSMB() }},
	{"ops_per_s", "1/s", func(o *outcome) float64 { return float64(o.ops) / o.opSecs }},
	{"op_p50_ms", "ms", func(o *outcome) float64 { return quantile(o.opMS.xs, 0.50) }},
	{"op_p95_ms", "ms", func(o *outcome) float64 { return quantile(o.opMS.xs, 0.95) }},
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the Harrell-Davis estimate of the q-quantile: the mean of
// the order statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density. A
// single order statistic jumps when the quantile falls between two kinds
// of operation of very different cost, as on trace-pipeline, where eight
// passes of four kernels in two formats make eight clusters; the weighted
// mean moves smoothly. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	if a <= 0 || b <= 0 {
		return s[min(n-1, int(q*float64(n)))]
	}
	// Outside 12 standard deviations of the Beta weight the cumulative
	// weight is 0 or 1 to double precision, so only the window is summed.
	sd := math.Sqrt(q * (1 - q) / float64(n+2))
	lo := max(0, int(math.Floor((q-12*sd)*float64(n))))
	hi := min(n, int(math.Ceil((q+12*sd)*float64(n))))
	first := betaInc(a, b, float64(lo)/float64(n))
	sum, prev := 0.0, first
	for i := lo + 1; i <= hi; i++ {
		cur := 1.0
		if i < hi {
			cur = betaInc(a, b, float64(i)/float64(n))
		}
		sum += (cur - prev) * s[i-1]
		prev = cur
	}
	return sum / (1 - first)
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (2nd ed., section 6.4).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 100000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}
