package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Trace is the round the span belongs to; Parent is the enclosing span's
// ID (0 for a round's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (tr *tracer) start(name string, round, parent int) int {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Trace: round, Name: name, Start: now})
	return len(tr.spans)
}

// end closes the span start returned.
func (tr *tracer) end(id int) {
	if tr == nil {
		return
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans[id-1].End = now
	tr.mu.Unlock()
}

// call runs fn inside a span.
func (tr *tracer) call(name string, round, parent int, fn func() error) error {
	id := tr.start(name, round, parent)
	err := fn()
	tr.end(id)
	return err
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// measureTraced runs the workload for half the budget untraced, then for
// the other half with spans and a CPU profile, and reports the per-layer
// metrics of the traced half.
func measureTraced(wl workload, cfg *config, spanPath string) (result, error) {
	untraced := *cfg
	untraced.budget = cfg.budget / 2
	base := newOutcome()
	if err := warmUp(wl, &untraced, base); err != nil {
		return result{}, err
	}
	if err := runRounds(wl, &untraced, base); err != nil {
		return result{}, err
	}

	tracedCfg := untraced
	tracedCfg.tr = newTracer()
	o := newOutcome()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	err := runRounds(wl, &tracedCfg, o)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	shares, samples, err := layerShares(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	if err := tracedCfg.tr.write(spanPath); err != nil {
		return result{}, fmt.Errorf("spans: %w", err)
	}

	o.attempted += base.attempted
	o.failed += base.failed
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	o.check(samples > 0 && math.Abs(sum-1) < 1e-9)

	in := layerInput{
		o:        o,
		spans:    tracedCfg.tr.spans,
		rounds:   len(o.wall),
		shares:   shares,
		overhead: median(o.wall)/median(base.wall) - 1,
	}
	res := newResult(o)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: m.value(in), Unit: m.unit}
	}
	return res, nil
}

// layerInput is what the per-layer metrics are computed from.
type layerInput struct {
	o        *outcome
	spans    []span
	rounds   int
	shares   map[string]float64
	overhead float64
}

type layerMetric struct {
	name, unit string
	value      func(in layerInput) float64
}

// cpuShare is the share of CPU profile samples attributed to one layer.
func cpuShare(layer string) layerMetric {
	return layerMetric{"cpu." + layer, "share", func(in layerInput) float64 { return in.shares[layer] }}
}

// spanTotal is the median over rounds of the host seconds a round spent
// in spans of one name.
func spanTotal(metric, name string) layerMetric {
	return layerMetric{metric, "s", func(in layerInput) float64 {
		per := make([]float64, in.rounds)
		for _, s := range in.spans {
			if s.Name == name && s.Trace < in.rounds {
				per[s.Trace] += s.seconds()
			}
		}
		return median(per)
	}}
}

// spanQuantile is a quantile of the durations of all spans of one name,
// in milliseconds.
func spanQuantile(metric, name string, q float64) layerMetric {
	return layerMetric{metric, "ms", func(in layerInput) float64 {
		var ms []float64
		for _, s := range in.spans {
			if s.Name == name {
				ms = append(ms, s.seconds()*1e3)
			}
		}
		return quantile(ms, q)
	}}
}

// counter is the median over rounds of a value the workload recorded
// once per round.
func counter(metric, unit string) layerMetric {
	return layerMetric{metric, unit, func(in layerInput) float64 { return median(in.o.layer[metric]) }}
}

// perLayer lists the per-layer metrics in BENCHMARK.json order. A metric
// of a layer the workload does not exercise reads 0.
var perLayer = func() []layerMetric {
	var ms []layerMetric
	for _, l := range cpuLayers {
		ms = append(ms, cpuShare(l))
	}
	for _, id := range sweepFigures {
		ms = append(ms, spanTotal("exp.figure."+id+"_s", "exp.Figure/"+id))
	}
	ms = append(ms,
		layerMetric{"exp.cell_p50_ms", "ms", func(in layerInput) float64 { return quantile(in.o.cellMS, 0.5) }},
		layerMetric{"exp.cell_p90_ms", "ms", func(in layerInput) float64 { return quantile(in.o.cellMS, 0.9) }},
		counter("exp.cells", "count"),
		counter("exp.runs", "count"),
		counter("exp.virtual_s", "s"),
		counter("des.events", "count"),
		counter("des.events_per_op", "event/op"),
		counter("sim_events_per_s", "1/s"),
	)
	for _, v := range serveVerbs {
		ms = append(ms,
			spanQuantile("serve."+v+".p50_ms", "serve."+v, 0.50),
			spanQuantile("serve."+v+".p99_ms", "serve."+v, 0.99))
	}
	ms = append(ms,
		counter("serve.admitted", "count"),
		counter("serve.queued", "count"),
		counter("serve.evicted", "count"),
		counter("serve.sim_s_per_op", "s"),
		spanTotal("guide.build_s", "guide.Build"),
		spanTotal("guide.launch_s", "guide.Launch"),
	)
	for _, f := range traceFormats {
		ms = append(ms,
			spanTotal("des.run_s."+f, "des.Run/"+f),
			spanTotal("vt.write_s."+f, "vt.Write/"+f),
			spanTotal("vt.read_s."+f, "vt.ReadTraceAuto/"+f),
			spanTotal("vgv.analyze_s."+f, "vgv.Analyze/"+f),
			counter("vt.bytes_per_event."+f, "B/event"))
	}
	ms = append(ms,
		spanTotal("vgv.render_s", "vgv.Render"),
		counter("vt.events", "count"),
		counter("vt.compact_repeats", "count"),
		counter("trace_bytes_per_event", "B/event"),
		counter("proc.calls", "count"),
		counter("proc.instr_cycles", "count"),
		layerMetric{"trace_overhead", "ratio", func(in layerInput) float64 { return in.overhead }},
		layerMetric{"fail_frac", "ratio", func(in layerInput) float64 {
			return float64(in.o.failed) / float64(in.o.attempted)
		}},
	)
	return ms
}()
