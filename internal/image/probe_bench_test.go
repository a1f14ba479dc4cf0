package image_test

import (
	"testing"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// BenchmarkProbeInsertRemove measures patch/unpatch round trips over
// smg98's instrumented subset in its 199-function image: dynprof's
// per-function insertion cost, host-side.
func BenchmarkProbeInsertRemove(b *testing.B) {
	app, err := apps.Get("smg98")
	if err != nil {
		b.Fatal(err)
	}
	bin, err := guide.Build(app, guide.BuildOpts{})
	if err != nil {
		b.Fatal(err)
	}
	v := vt.NewCtx(vt.Options{Rank: 0, Collector: vt.NewCollector()})
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
