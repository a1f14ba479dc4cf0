package main

import (
	"bytes"
	"fmt"
	"time"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/exp"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vgv"
	"dynprof/internal/vt"
)

// The trace-pipeline workload runs all four kernels at Full
// instrumentation, once into the default (verbatim) collector and once
// into the redundancy-suppressing one, and takes each trace through
// write, ReadTraceAuto, vgv.Analyze and the four vgv views. It loads the
// vt layer in both directions: record and encode, then decode and
// analyse. Trace files are written to memory, so disk speed stays out of
// the figures.

var (
	pipeKernels  = []string{"smg98", "sppm", "sweep3d", "umt98"}
	traceFormats = []string{"verbatim", "compact"}
)

// viewWidth and viewRows size the rendered vgv views.
const viewWidth, viewRows = 100, 20

// passResult is one kernel's trace in one format, after the pipeline.
type passResult struct {
	views                    []byte
	events, bytes, des, reps int
	runSecs                  float64 // host seconds in Scheduler.Run
	calls, instr             int64
}

func pipelineRound(cfg *config, o *outcome, n int) error {
	root := cfg.tr.start("round", n, 0)
	defer cfg.tr.end(root)
	start := time.Now()
	var setup time.Duration
	results := map[string]map[string]passResult{}
	for _, format := range traceFormats {
		results[format] = map[string]passResult{}
		for _, k := range pipeKernels {
			t := time.Now()
			res, su, err := tracePass(cfg, o, n, root, k, format)
			if err != nil {
				return fmt.Errorf("%s %s: %w", k, format, err)
			}
			o.opMS.add(float64(time.Since(t).Nanoseconds()) / 1e6)
			o.ops++
			setup += su
			results[format][k] = res
		}
	}
	wall := time.Since(start)
	o.wall = append(o.wall, wall.Seconds())
	o.setup = append(o.setup, setup.Seconds())
	o.opSecs += wall.Seconds()

	var events, fileBytes, desEvents, repeats int
	var runSecs float64
	var calls, instr int64
	for _, format := range traceFormats {
		var ev, by int
		for _, k := range pipeKernels {
			r := results[format][k]
			ev += r.events
			by += r.bytes
			desEvents += r.des
			repeats += r.reps
			runSecs += r.runSecs
			calls += r.calls
			instr += r.instr
		}
		o.record("vt.bytes_per_event."+format, float64(by)/float64(ev))
		events += ev
		fileBytes += by
	}
	for _, k := range pipeKernels {
		o.check(bytes.Equal(results["compact"][k].views, results["verbatim"][k].views))
	}
	o.record("trace_bytes_per_event", float64(fileBytes)/float64(events))
	o.record("vt.events", float64(events/len(traceFormats)))
	o.record("vt.compact_repeats", float64(repeats))
	o.record("des.events", float64(desEvents))
	o.record("proc.calls", float64(calls))
	o.record("proc.instr_cycles", float64(instr))
	o.record("sim_events_per_s", float64(desEvents)/runSecs)
	o.record("des.events_per_op", float64(desEvents)/float64(len(traceFormats)*len(pipeKernels)))
	return nil
}

// tracePass builds, launches and runs one kernel, then writes its trace,
// reads it back, analyses it and renders the views. It returns the views
// and counts, and the host time spent in Build and Launch.
func tracePass(cfg *config, o *outcome, n, root int, kernel, format string) (passResult, time.Duration, error) {
	var res passResult
	tr := cfg.tr
	app, err := apps.Get(kernel)
	if err != nil {
		return res, 0, err
	}

	t := time.Now()
	var bin *guide.Binary
	if err := tr.call("guide.Build", n, root, func() (err error) {
		bin, err = guide.Build(app, exp.Full.BuildOpts(app))
		return err
	}); err != nil {
		return res, 0, err
	}
	col := vt.NewCollector()
	if format == "compact" {
		col = vt.NewCompactCollector()
	}
	defer col.Release()
	mach := machine.MustNew("ibm-power3")
	procs := cfg.pipeRanks
	if !app.Lang.IsMPI() {
		// An OpenMP kernel runs as one process on one node.
		procs = min(procs, mach.CPUsPerNode)
	}
	s := des.NewScheduler(cfg.seed)
	var job *guide.Job
	if err := tr.call("guide.Launch", n, root, func() (err error) {
		job, err = guide.Launch(s, mach, bin, guide.LaunchOpts{Procs: procs, Args: cfg.pipeArgs[kernel], Collector: col})
		return err
	}); err != nil {
		return res, 0, err
	}
	setup := time.Since(t)

	tRun := time.Now()
	if err := tr.call("des.Run/"+format, n, root, s.Run); err != nil {
		return res, setup, err
	}
	res.runSecs = time.Since(tRun).Seconds()
	res.events, res.des, res.reps = col.Len(), int(s.Executed()), col.CompactStats().Repeats
	for _, p := range job.Processes() {
		for _, th := range p.Threads() {
			res.calls += th.Calls()
			res.instr += th.InstrCycles()
		}
	}

	var file bytes.Buffer
	err = tr.call("vt.Write/"+format, n, root, func() error {
		if format == "compact" {
			return col.WriteCompactTrace(&file)
		}
		return col.WriteTrace(&file)
	})
	o.check(err == nil)
	res.bytes = file.Len()
	if cfg.faults.truncateTrace {
		file.Truncate(file.Len() * 9 / 10)
	}

	var dec *vt.Collector
	err = tr.call("vt.ReadTraceAuto/"+format, n, root, func() (err error) {
		dec, err = vt.ReadTraceAuto(&file)
		return err
	})
	o.check(err == nil && dec.Len() == res.events)
	if err != nil {
		return res, setup, nil
	}
	defer dec.Release()

	var p *vgv.Profile
	_ = tr.call("vgv.Analyze/"+format, n, root, func() error {
		p = vgv.Analyze(dec)
		return nil
	})
	var views bytes.Buffer
	err = tr.call("vgv.Render", n, root, func() error {
		for _, render := range []func() error{
			func() error { return p.WriteReport(&views, viewRows) },
			func() error { return p.WriteCallGraph(&views, viewRows) },
			func() error { return p.WriteCommMatrix(&views, viewRows) },
			func() error { return vgv.RenderTimeline(dec, &views, viewWidth) },
		} {
			if err := render(); err != nil {
				return err
			}
		}
		return nil
	})
	o.check(err == nil)
	res.views = views.Bytes()
	return res, setup, nil
}
