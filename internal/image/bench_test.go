package image

import "testing"

// BenchmarkTrampolineExecution measures the simulated-image cost of an
// unpatched call gate versus one displaced into a base+mini trampoline
// chain (the Figure 1 mechanism itself). The cycles metric is the
// simulated cost of one entry.
func BenchmarkTrampolineExecution(b *testing.B) {
	build := func(chain int) *Image {
		bl := NewBuilder("micro")
		if _, err := bl.AddFunc(FuncSpec{Name: "f", BodyWords: 16, Exits: 1}); err != nil {
			b.Fatal(err)
		}
		img := bl.Build()
		if chain > 0 {
			sym := img.MustLookup("f")
			id := img.NewSnippetID()
			img.BindSnippet(id, func(ExecCtx) {})
			for i := 0; i < chain; i++ {
				h, err := img.InsertProbe(sym, EntryPoint, 0, id)
				if err != nil {
					b.Fatal(err)
				}
				h.SetActive(true)
			}
		}
		return img
	}
	for _, cfg := range []struct {
		name  string
		chain int
	}{{"pristine", 0}, {"patched-1", 1}, {"patched-4", 4}} {
		b.Run(cfg.name, func(b *testing.B) {
			img := build(cfg.chain)
			sym := img.MustLookup("f")
			ctx := &fakeCtx{}
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = img.ExecEntry(sym, ctx)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}
