package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"dynprof/internal/exp"
)

// The paper-figures workload renders every table and figure of
// `experiments -all` at Parallelism 1 and compares the bytes with the
// committed golden output. It runs at exp.DefaultSeed whatever --seed
// says: the golden output exists for that seed only.

// loadGolden reads the committed `experiments -all` output without its
// trailing exit-status line.
func loadGolden(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden output: %w", err)
	}
	return bytes.TrimSuffix(b, []byte("EXIT=0\n")), nil
}

func figuresRound(cfg *config, o *outcome, n int) error {
	golden := cfg.golden
	if cfg.faults.flipGolden {
		golden = bytes.Clone(golden)
		golden[bytes.IndexByte(golden, '\n')+1] ^= 0x20 // inside Table 1, which every run renders
	}

	root := cfg.tr.start("round", n, 0)
	defer cfg.tr.end(root)
	start := time.Now()
	var firstCell time.Duration
	opts := exp.Options{
		Seed:        exp.DefaultSeed,
		SeedSet:     true,
		Parallelism: 1,
		Progress: func(done, _, _ int) {
			if done == 1 && firstCell == 0 {
				firstCell = time.Since(start)
			}
		},
		OnCell: func(ev exp.CellEvent) {
			if !ev.CacheHit && !ev.StoreHit {
				o.cellMS = append(o.cellMS, ev.WallMS)
				o.opMS.add(ev.WallMS)
				o.ops++
			}
		},
	}
	r := exp.NewRunner(opts)

	var out bytes.Buffer
	for _, table := range []func(io.Writer) error{exp.RenderTable1, exp.RenderTable2, exp.RenderTable3} {
		if err := table(&out); err != nil {
			return err
		}
		out.WriteString("\n")
	}
	for _, id := range cfg.figures {
		var fig *exp.Figure
		err := cfg.tr.call("exp.Figure/"+id, n, root, func() (err error) {
			fig, err = r.Figure(id)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for range fig.Failures {
			o.check(false)
		}
		if err := fig.Render(&out); err != nil {
			return err
		}
		out.WriteString("\n")
	}
	wall := time.Since(start)
	o.wall = append(o.wall, wall.Seconds())
	o.setup = append(o.setup, firstCell.Seconds())
	o.opSecs += wall.Seconds()

	// More set-up samples, each a fresh Runner's Figure 7(a) trimmed to
	// one CPU, up to its first finished cell. They take the sweep's path
	// (Figure, figure planning, the worker pool) to the sweep's first
	// cell, Figure 7(a) Full at one CPU. They follow the sweep, so the
	// process is warm, and each follows a full collection, so none pays
	// for the sweep's garbage.
	if n == 0 {
		for i := 1; i < cfg.setupSamples; i++ {
			runtime.GC()
			t := time.Now()
			var first time.Duration
			_, err := exp.NewRunner(exp.Options{
				Seed:        exp.DefaultSeed,
				SeedSet:     true,
				Parallelism: 1,
				MaxCPUs:     1,
				Progress: func(done, _, _ int) {
					if done == 1 {
						first = time.Since(t)
					}
				},
			}).Figure("fig7a")
			if err != nil {
				return fmt.Errorf("set-up sample: %w", err)
			}
			o.setup = append(o.setup, first.Seconds())
		}
	}

	m := r.Metrics()
	o.check(m.Failures == 0)
	checkSections(o, out.Bytes(), golden, slices.Equal(cfg.figures, sweepFigures))
	o.record("exp.cells", float64(m.Cells))
	o.record("exp.runs", float64(m.Runs))
	o.record("exp.virtual_s", m.Virtual.Seconds())
	return nil
}

// checkSections compares the rendered output with the golden one table
// or figure at a time, so a run of a subset of the figures is checked
// too. Each section starts with a "# " title line. A run of the whole
// sweep must also match the golden output as a whole, section count
// included, so a section the golden output has and the run did not
// render counts as a failure.
func checkSections(o *outcome, got, golden []byte, whole bool) {
	want := map[string][]byte{}
	for _, s := range sections(golden) {
		want[string(s[:bytes.IndexByte(s, '\n')+1])] = s
	}
	gotSections := sections(got)
	for _, s := range gotSections {
		o.check(bytes.Equal(s, want[string(s[:bytes.IndexByte(s, '\n')+1])]))
	}
	if whole {
		o.check(len(gotSections) == len(sections(golden)))
		o.check(bytes.Equal(got, golden))
	}
}

// sections splits rendered output before each "# " title line.
func sections(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		next := bytes.Index(b[1:], []byte("\n# "))
		if next < 0 {
			return append(out, b)
		}
		out = append(out, b[:next+2])
		b = b[next+2:]
	}
	return out
}
