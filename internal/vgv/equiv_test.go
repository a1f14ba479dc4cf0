package vgv

import (
	"bytes"
	"testing"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// The compact trace format's contract is that suppression is invisible to
// analysis: every VGV rendering of a suppressed+compacted trace — directly
// and after a write/decode round trip through the binary trace file — must
// be byte-identical to the verbatim collector's.
// This suite enforces that per kernel at Full instrumentation.

var equivKernels = []struct {
	app   string
	args  map[string]int
	procs int
}{
	{"smg98", map[string]int{"nx": 6, "ny": 6, "nz": 8, "iters": 1}, 4},
	{"sppm", map[string]int{"nx": 6, "ny": 6, "nz": 6, "steps": 1}, 4},
	{"sweep3d", map[string]int{"nx": 64, "ny": 4, "nz": 4, "iters": 1}, 4},
	{"umt98", map[string]int{"zones": 64, "angles": 8, "iters": 1}, 4},
}

// runKernel executes one kernel at Full instrumentation into col (nil: the
// job's own verbatim collector) and returns the populated collector.
func runKernel(t *testing.T, name string, args map[string]int, procs int, col *vt.Collector) *vt.Collector {
	t.Helper()
	app, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := guide.Build(app, guide.BuildOpts{StaticInstrument: true, TraceMPI: true, TraceOMP: true})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(53)
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{
		Procs:     procs,
		Args:      args,
		Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return j.Collector()
}

// renderAll produces every VGV artifact of a trace: timeline, profile
// report, call graph, communication matrix and the textual trace dump.
func renderAll(t *testing.T, col *vt.Collector) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	var buf bytes.Buffer
	if err := RenderTimeline(col, &buf, 72); err != nil {
		t.Fatal(err)
	}
	out["timeline"] = append([]byte(nil), buf.Bytes()...)
	p := Analyze(col)
	buf.Reset()
	if err := p.WriteReport(&buf, 20); err != nil {
		t.Fatal(err)
	}
	out["report"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := p.WriteCallGraph(&buf, 20); err != nil {
		t.Fatal(err)
	}
	out["callgraph"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := p.WriteCommMatrix(&buf, 20); err != nil {
		t.Fatal(err)
	}
	out["commmatrix"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out["trace"] = append([]byte(nil), buf.Bytes()...)
	return out
}

// compareRenderings byte-compares every artifact, the raw trace dump
// included: function-id assignment follows declaration order, so sibling
// runs of the same deck produce identical ids and identical dumps.
func compareRenderings(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	for artifact, w := range want {
		if !bytes.Equal(w, got[artifact]) {
			t.Errorf("%s: %s diverges from reference rendering", label, artifact)
		}
	}
}

func TestCompactVGVEquivalence(t *testing.T) {
	for _, k := range equivKernels {
		t.Run(k.app, func(t *testing.T) {
			verbatim := runKernel(t, k.app, k.args, k.procs, nil)
			defer verbatim.Release()
			want := renderAll(t, verbatim)
			if verbatim.Len() == 0 {
				t.Fatal("verbatim run collected no events")
			}

			compact := vt.NewCompactCollector()
			defer compact.Release()
			runKernel(t, k.app, k.args, k.procs, compact)
			wantCompact := renderAll(t, compact)
			compareRenderings(t, "compact", want, wantCompact)
			if st := compact.CompactStats(); st.Bytes >= st.VerbatimBytes() {
				t.Errorf("no suppression: %d encoded vs %d verbatim bytes", st.Bytes, st.VerbatimBytes())
			}

			// Write/decode round trip through the binary trace file: same
			// collector contents, so every artifact — the raw trace dump
			// included — must be byte-identical.
			var file bytes.Buffer
			if err := compact.WriteCompactTrace(&file); err != nil {
				t.Fatal(err)
			}
			decoded, err := vt.ReadTraceAuto(bytes.NewReader(file.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			defer decoded.Release()
			compareRenderings(t, "decoded", wantCompact, renderAll(t, decoded))
		})
	}
}
