package image

import (
	"fmt"
	"testing"
	"testing/quick"

	"dynprof/internal/des"
	"dynprof/internal/isa"
)

// fakeCtx implements ExecCtx for tests.
type fakeCtx struct {
	tid     int
	now     des.Time
	charged int64
}

func (c *fakeCtx) ThreadID() int       { return c.tid }
func (c *fakeCtx) Now() des.Time       { return c.now }
func (c *fakeCtx) Charge(cycles int64) { c.charged += cycles }

func buildTestImage(t testing.TB) *Image {
	t.Helper()
	b := NewBuilder("test")
	if _, err := b.AddFunc(FuncSpec{Name: "alpha", BodyWords: 10, Exits: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddFunc(FuncSpec{Name: "beta", BodyWords: 4, Exits: 3}); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestBuilderLayout(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	// alpha: entry Nop, Body, 10 Work, exit Nop, Ret = 14 words.
	if a.Entry != 0 || a.BodyAt != 1 || len(a.Exits) != 1 || a.Exits[0] != 12 || a.End != 14 {
		t.Fatalf("alpha layout: %+v", a)
	}
	bsym := img.MustLookup("beta")
	if bsym.Entry != 14 || len(bsym.Exits) != 3 {
		t.Fatalf("beta layout: %+v", bsym)
	}
	if img.Word(a.Entry).Op != isa.Nop || img.Word(a.BodyAt).Op != isa.Body {
		t.Fatal("wrong opcodes at probe/body slots")
	}
	if got := len(img.SymbolNames()); got != 2 {
		t.Fatalf("symbol count = %d", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	if _, err := b.AddFunc(FuncSpec{Name: "", Exits: 1}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := b.AddFunc(FuncSpec{Name: "f", Exits: 0}); err == nil {
		t.Error("zero exits accepted")
	}
	if _, err := b.AddFunc(FuncSpec{Name: "f", Exits: 1, BodyWords: -1}); err == nil {
		t.Error("negative body accepted")
	}
	if _, err := b.AddFunc(FuncSpec{Name: "f", Exits: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddFunc(FuncSpec{Name: "f", Exits: 1}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestLookup(t *testing.T) {
	img := buildTestImage(t)
	if _, ok := img.Lookup("alpha"); !ok {
		t.Error("alpha not found")
	}
	if _, ok := img.Lookup("gamma"); ok {
		t.Error("gamma found but never added")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on missing symbol did not panic")
		}
	}()
	img.MustLookup("gamma")
}

func TestPristineEntryCost(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	ctx := &fakeCtx{}
	// Unpatched entry: a single Nop then the free Body marker.
	got := img.ExecEntry(a, ctx)
	if got != isa.Nop.Cycles() {
		t.Fatalf("pristine entry cost = %d, want %d", got, isa.Nop.Cycles())
	}
	// Unpatched exit: Nop + Ret.
	got = img.ExecExit(a, 0, ctx)
	if got != isa.Nop.Cycles()+isa.Ret.Cycles() {
		t.Fatalf("pristine exit cost = %d", got)
	}
}

func TestInsertProbeFiresSnippetWhenActive(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	fired := 0
	id := img.NewSnippetID()
	img.BindSnippet(id, func(ctx ExecCtx) { fired++ })
	h, err := img.InsertProbe(a, EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &fakeCtx{}
	img.ExecEntry(a, ctx)
	if fired != 0 {
		t.Fatal("inactive probe fired")
	}
	h.SetActive(true)
	img.ExecEntry(a, ctx)
	if fired != 1 {
		t.Fatalf("active probe fired %d times, want 1", fired)
	}
	h.SetActive(false)
	img.ExecEntry(a, ctx)
	if fired != 1 {
		t.Fatal("deactivated probe fired")
	}
}

func TestPatchedEntryCostsTrampolineOverhead(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	id := img.NewSnippetID()
	img.BindSnippet(id, func(ctx ExecCtx) {})
	pristine := img.ExecEntry(a, &fakeCtx{})
	h, err := img.InsertProbe(a, EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	h.SetActive(true)
	patched := img.ExecEntry(a, &fakeCtx{})
	// Patched path: Jmp, SaveRegs, Jmp(chain), SnippetCall, Jmp(back),
	// relocated Nop, RestoreRegs, Jmp back, then original cost again.
	wantMin := isa.Jmp.Cycles() + isa.SaveRegs.Cycles() + isa.RestoreRegs.Cycles() + isa.SnippetCall.Cycles()
	if patched <= pristine || patched < wantMin {
		t.Fatalf("patched cost %d vs pristine %d (want >= %d extra)", patched, pristine, wantMin)
	}
}

func TestExitProbesPerReturnPoint(t *testing.T) {
	img := buildTestImage(t)
	b := img.MustLookup("beta")
	var hits []int
	var id int64
	for e := 0; e < 3; e++ {
		id = img.NewSnippetID()
		img.BindSnippet(id, func(ctx ExecCtx) { hits = append(hits, e) })
		h, err := img.InsertProbe(b, ExitPoint, e, id)
		if err != nil {
			t.Fatal(err)
		}
		h.SetActive(true)
	}
	// The second pass replays each exit's cached region program, which
	// must still be that exit's own.
	for pass := 0; pass < 2; pass++ {
		img.ExecEntry(b, &fakeCtx{})
		for e := 0; e < 3; e++ {
			img.ExecExit(b, e, &fakeCtx{})
		}
	}
	if fmt.Sprint(hits) != "[0 1 2 0 1 2]" {
		t.Fatalf("exit probes fired %v, want [0 1 2 0 1 2]", hits)
	}
	if _, err := img.InsertProbe(b, ExitPoint, 7, id); err == nil {
		t.Error("out-of-range exit accepted")
	}
}

func TestMiniTrampolineChaining(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	var order []string
	mk := func(name string) int64 {
		id := img.NewSnippetID()
		img.BindSnippet(id, func(ctx ExecCtx) { order = append(order, name) })
		return id
	}
	h1, _ := img.InsertProbe(a, EntryPoint, 0, mk("first"))
	h2, _ := img.InsertProbe(a, EntryPoint, 0, mk("second"))
	h3, _ := img.InsertProbe(a, EntryPoint, 0, mk("third"))
	for _, h := range []*ProbeHandle{h1, h2, h3} {
		h.SetActive(true)
	}
	if got := img.ChainLen(a, EntryPoint, 0); got != 3 {
		t.Fatalf("chain length = %d, want 3", got)
	}
	img.ExecEntry(a, &fakeCtx{})
	if fmt.Sprint(order) != "[first second third]" {
		t.Fatalf("chain order = %v", order)
	}
	// Removing the middle mini must preserve the rest of the chain.
	order = nil
	if err := h2.Remove(); err != nil {
		t.Fatal(err)
	}
	img.ExecEntry(a, &fakeCtx{})
	if fmt.Sprint(order) != "[first third]" {
		t.Fatalf("after middle removal: %v", order)
	}
}

func TestRemoveLastProbeRestoresPristineImage(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	pristineWord := img.Word(a.Entry)
	pristineCost := img.ExecEntry(a, &fakeCtx{})
	id := img.NewSnippetID()
	img.BindSnippet(id, func(ctx ExecCtx) {})
	h, err := img.InsertProbe(a, EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	h.SetActive(true)
	if !img.Patched(a, EntryPoint, 0) {
		t.Fatal("probe point not marked patched")
	}
	if err := h.Remove(); err != nil {
		t.Fatal(err)
	}
	if img.Patched(a, EntryPoint, 0) {
		t.Fatal("probe point still patched after removal")
	}
	if img.Word(a.Entry) != pristineWord {
		t.Fatalf("entry word %v, want restored %v", img.Word(a.Entry), pristineWord)
	}
	if got := img.ExecEntry(a, &fakeCtx{}); got != pristineCost {
		t.Fatalf("post-removal cost %d, want pristine %d", got, pristineCost)
	}
	if img.HeapWords() != 0 {
		t.Fatalf("heap words leaked: %d", img.HeapWords())
	}
	if err := h.Remove(); err == nil {
		t.Error("double remove succeeded")
	}
}

func TestInsertProbeRequiresBoundSnippet(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	if _, err := img.InsertProbe(a, EntryPoint, 0, 999); err == nil {
		t.Fatal("unbound snippet accepted")
	}
}

func TestStaticSnippetsCompiledIn(t *testing.T) {
	b := NewBuilder("static")
	beginID := b.ReserveSnippetID()
	endID := b.ReserveSnippetID()
	if _, err := b.AddFunc(FuncSpec{
		Name: "f", BodyWords: 2, Exits: 2,
		EntrySnippets: []int64{beginID},
		ExitSnippets:  []int64{endID},
	}); err != nil {
		t.Fatal(err)
	}
	img := b.Build()
	var log []string
	img.BindSnippet(beginID, func(ctx ExecCtx) { log = append(log, "begin") })
	img.BindSnippet(endID, func(ctx ExecCtx) { log = append(log, "end") })
	f := img.MustLookup("f")
	img.ExecEntry(f, &fakeCtx{})
	img.ExecExit(f, 1, &fakeCtx{})
	if fmt.Sprint(log) != "[begin end]" {
		t.Fatalf("log = %v", log)
	}
	// Static instrumentation costs the SnippetCall word even when the
	// snippet body does nothing — the Full-Off residual overhead.
	cost := img.ExecEntry(f, &fakeCtx{})
	if cost < isa.SnippetCall.Cycles() {
		t.Fatalf("static entry cost %d too small", cost)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	id := img.NewSnippetID()
	img.BindSnippet(id, func(ctx ExecCtx) {})
	clone := img.Clone()
	if _, err := img.InsertProbe(a, EntryPoint, 0, id); err != nil {
		t.Fatal(err)
	}
	if clone.Patched(clone.MustLookup("alpha"), EntryPoint, 0) {
		t.Fatal("patching the original affected the clone")
	}
	if clone.Words() == img.Words() {
		t.Fatal("original should have grown a trampoline; clone should not")
	}
	// Clone with existing patch: chain bookkeeping must be deep-copied.
	h2, err := clone.InsertProbe(clone.MustLookup("alpha"), EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Remove(); err != nil {
		t.Fatal(err)
	}
}

func TestPatchedSymbols(t *testing.T) {
	img := buildTestImage(t)
	id := img.NewSnippetID()
	img.BindSnippet(id, func(ctx ExecCtx) {})
	if _, err := img.InsertProbe(img.MustLookup("beta"), ExitPoint, 1, id); err != nil {
		t.Fatal(err)
	}
	got := img.PatchedSymbols()
	if len(got) != 1 || got[0] != "beta" {
		t.Fatalf("PatchedSymbols = %v", got)
	}
}

func TestChargeReachesContext(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	id := img.NewSnippetID()
	img.BindSnippet(id, func(ctx ExecCtx) { ctx.Charge(123) })
	h, _ := img.InsertProbe(a, EntryPoint, 0, id)
	h.SetActive(true)
	ctx := &fakeCtx{tid: 4, now: 9 * des.Second}
	img.ExecEntry(a, ctx)
	if ctx.charged != 123 {
		t.Fatalf("charged = %d", ctx.charged)
	}
}

// Property: inserting then removing any number of probes at any probe
// points leaves the image word-for-word identical to its pristine state.
func TestPatchUnpatchRoundTripProperty(t *testing.T) {
	f := func(points []uint8) bool {
		img := buildTestImage(t)
		a, b := img.MustLookup("alpha"), img.MustLookup("beta")
		pristine := append([]isa.Word(nil), img.words...)
		id := img.NewSnippetID()
		img.BindSnippet(id, func(ctx ExecCtx) {})
		if len(points) > 24 {
			points = points[:24]
		}
		var handles []*ProbeHandle
		for _, pt := range points {
			var h *ProbeHandle
			var err error
			switch pt % 5 {
			case 0:
				h, err = img.InsertProbe(a, EntryPoint, 0, id)
			case 1:
				h, err = img.InsertProbe(a, ExitPoint, 0, id)
			case 2:
				h, err = img.InsertProbe(b, EntryPoint, 0, id)
			case 3:
				h, err = img.InsertProbe(b, ExitPoint, int(pt)%3, id)
			case 4:
				h, err = img.InsertProbe(b, ExitPoint, 2, id)
			}
			if err != nil {
				return false
			}
			h.SetActive(true)
			handles = append(handles, h)
		}
		// Remove in a scrambled order.
		for i := range handles {
			j := (i*7 + 3) % len(handles)
			handles[i], handles[j] = handles[j], handles[i]
		}
		for _, h := range handles {
			if err := h.Remove(); err != nil {
				return false
			}
		}
		if img.HeapWords() != 0 {
			return false
		}
		for i, w := range pristine {
			if img.words[i] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOpcodeStrings(t *testing.T) {
	if isa.Jmp.String() != "jmp" || isa.SnippetCall.String() != "snippetcall" {
		t.Fatal("opcode mnemonics wrong")
	}
	w := isa.Word{Op: isa.Jmp, Arg: 77}
	if w.String() != "jmp 77" {
		t.Fatalf("word string = %q", w.String())
	}
	if (isa.Word{Op: isa.Work, Arg: 9}).Cost() != isa.Work.Cycles()+9 {
		t.Fatal("work cost wrong")
	}
}
