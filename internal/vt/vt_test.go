package vt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dynprof/internal/des"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/mpi"
	"dynprof/internal/omp"
	"dynprof/internal/proc"
)

type fakeEC struct {
	tid     int
	now     des.Time
	charged int64
}

func (c *fakeEC) ThreadID() int    { return c.tid }
func (c *fakeEC) Now() des.Time    { return c.now }
func (c *fakeEC) Charge(cyc int64) { c.charged += cyc }

func newTestCtx(cfg *Config) (*Ctx, *Collector) {
	col := NewCollector()
	c := NewCtx(Options{Rank: 0, Config: cfg, Collector: col})
	c.Initialize(nil)
	return c, col
}

func TestConfigParse(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
# comment
SYMBOL * OFF
SYMBOL smg_* ON
SYMBOL main OFF
`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Rules() != 3 {
		t.Fatalf("rules = %d", cfg.Rules())
	}
	cases := map[string]bool{
		"random":    false, // * OFF
		"smg_relax": true,  // smg_* ON overrides
		"main":      false, // exact OFF
		"smg_":      true,
		"mainline":  false, // only exact "main" matched... actually '*' OFF applies
	}
	for name, want := range cases {
		if got := cfg.Active(name); got != want {
			t.Errorf("Active(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestConfigSetBounded: repeated updates of one pattern, as every adapt
// epoch or confsync batch makes, replace its rule instead of growing the
// list.
func TestConfigSetBounded(t *testing.T) {
	cfg := &Config{}
	for i := 0; i < 10000; i++ {
		cfg.Set("f", i%2 == 0)
	}
	if cfg.Rules() != 1 {
		t.Fatalf("rules = %d after 10k updates of one pattern, want 1", cfg.Rules())
	}
	if cfg.Active("f") {
		t.Error("last update (OFF) not in effect")
	}
}

// TestConfigSetMatchesAppendOnly: random updates over exact and prefix
// patterns give the same activation as an append-only rule list.
func TestConfigSetMatchesAppendOnly(t *testing.T) {
	patterns := []string{"*", "smg_*", "smg_relax", "smg_", "main", "ma*", "mpi_*", "mpi_send"}
	names := []string{"smg_relax", "smg_", "smg_solve", "main", "mainline", "mpi_send", "mpi_recv", "other", ""}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		cfg := &Config{}
		var ref []rule
		for step := 0; step < 50; step++ {
			p, on := patterns[rng.Intn(len(patterns))], rng.Intn(2) == 0
			cfg.Set(p, on)
			ref = append(ref, rule{pattern: p, active: on})
			for _, name := range names {
				want := true
				for _, r := range ref {
					if matchPattern(r.pattern, name) {
						want = r.active
					}
				}
				if got := cfg.Active(name); got != want {
					t.Fatalf("trial %d step %d: Active(%q) = %v, append-only reference %v", trial, step, name, got, want)
				}
			}
		}
		if cfg.Rules() > len(patterns) {
			t.Fatalf("trial %d: %d rules for %d distinct patterns", trial, cfg.Rules(), len(patterns))
		}
	}
}

func TestConfigParseErrors(t *testing.T) {
	for _, bad := range []string{"SYMBOL foo", "NOTSYMBOL a ON", "SYMBOL a MAYBE"} {
		if _, err := ParseConfig(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseConfig(%q) accepted", bad)
		}
	}
}

func TestConfigDefaultsActive(t *testing.T) {
	var cfg *Config
	if !cfg.Active("anything") {
		t.Fatal("nil config must default to active")
	}
	empty := MustParseConfig("")
	if !empty.Active("anything") {
		t.Fatal("empty config must default to active")
	}
}

func TestConfigLaterRulesOverride(t *testing.T) {
	cfg := MustParseConfig("SYMBOL f ON\nSYMBOL f OFF")
	if cfg.Active("f") {
		t.Fatal("later OFF rule did not override")
	}
	cfg.Set("f", true)
	if !cfg.Active("f") {
		t.Fatal("runtime Set did not override")
	}
}

func TestFuncDefAssignsStableIDs(t *testing.T) {
	c, _ := newTestCtx(nil)
	a := c.FuncDef("alpha")
	b := c.FuncDef("beta")
	if a == b {
		t.Fatal("distinct functions share an id")
	}
	if c.FuncDef("alpha") != a {
		t.Fatal("re-registration changed the id")
	}
	if c.FuncName(a) != "alpha" || c.NumFuncs() != 2 {
		t.Fatalf("registry state wrong: %q %d", c.FuncName(a), c.NumFuncs())
	}
}

func TestBeginEndRecordWhenActive(t *testing.T) {
	c, col := newTestCtx(nil)
	id := c.FuncDef("f")
	ec := &fakeEC{tid: 2, now: 5 * des.Millisecond}
	c.Begin(ec, id)
	ec.now = 7 * des.Millisecond
	c.End(ec, id)
	c.Flush()
	evs := col.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Kind != Enter || evs[0].At != 5*des.Millisecond || evs[0].TID != 2 {
		t.Fatalf("enter event = %+v", evs[0])
	}
	if evs[1].Kind != Exit || evs[1].At != 7*des.Millisecond {
		t.Fatalf("exit event = %+v", evs[1])
	}
	if c.Calls(id) != 1 {
		t.Fatalf("calls = %d", c.Calls(id))
	}
}

func TestDeactivatedSymbolCostsOnlyLookup(t *testing.T) {
	cfg := MustParseConfig("SYMBOL off_* OFF")
	c, col := newTestCtx(cfg)
	offID := c.FuncDef("off_f")
	onID := c.FuncDef("on_f")

	ecOff := &fakeEC{}
	c.Begin(ecOff, offID)
	if ecOff.charged != lookupCycles {
		t.Fatalf("deactivated begin charged %d, want lookup-only %d", ecOff.charged, lookupCycles)
	}
	ecOn := &fakeEC{}
	c.Begin(ecOn, onID)
	if ecOn.charged != lookupCycles+recordCycles {
		t.Fatalf("active begin charged %d", ecOn.charged)
	}
	c.Flush()
	if col.Len() != 1 {
		t.Fatalf("deactivated symbol recorded an event (len=%d)", col.Len())
	}
}

func TestNotReadyRecordsNothing(t *testing.T) {
	col := NewCollector()
	c := NewCtx(Options{Rank: 0, Collector: col})
	id := c.FuncDef("f")
	ec := &fakeEC{}
	c.Begin(ec, id)
	c.End(ec, id)
	if ec.charged != 0 || len(c.buffers) != 0 {
		t.Fatal("library recorded or charged before initialisation")
	}
}

func TestApplyChangesRebuildsTable(t *testing.T) {
	c, _ := newTestCtx(nil)
	id := c.FuncDef("hot")
	if !c.Active(id) {
		t.Fatal("default should be active")
	}
	c.ApplyChanges([]Change{{Pattern: "hot", Active: false}})
	if c.Active(id) {
		t.Fatal("change did not deactivate")
	}
	if c.Generation() != 1 {
		t.Fatalf("generation = %d", c.Generation())
	}
	// New functions registered after the change see the updated config.
	id2 := c.FuncDef("hot") // same
	if id2 != id {
		t.Fatal("id changed")
	}
}

func TestApplyChangesUnknownFunc(t *testing.T) {
	c, _ := newTestCtx(nil)
	id := c.FuncDef("hot")
	// A batch naming an unknown function is rejected atomically: the valid
	// rule in the same batch must not be applied either, and the
	// generation must not advance.
	err := c.ApplyChanges([]Change{
		{Pattern: "hot", Active: false},
		{Pattern: "no_such_func", Active: false},
		{Pattern: "also_missing", Active: true},
	})
	var ue *UnknownFuncError
	if !errors.As(err, &ue) {
		t.Fatalf("ApplyChanges = %v, want *UnknownFuncError", err)
	}
	if len(ue.Patterns) != 2 || ue.Patterns[0] != "no_such_func" || ue.Patterns[1] != "also_missing" {
		t.Fatalf("UnknownFuncError.Patterns = %v", ue.Patterns)
	}
	if !c.Active(id) {
		t.Fatal("rejected batch partially applied")
	}
	if c.Generation() != 0 {
		t.Fatalf("rejected batch advanced generation to %d", c.Generation())
	}
	// Prefix patterns are exempt: they legitimately match functions
	// registered later.
	if err := c.ApplyChanges([]Change{{Pattern: "future_*", Active: false}}); err != nil {
		t.Fatalf("prefix pattern rejected: %v", err)
	}
	if c.Generation() != 1 {
		t.Fatalf("generation = %d after valid prefix change", c.Generation())
	}
}

func TestSnippetsCallLibrary(t *testing.T) {
	c, col := newTestCtx(nil)
	id := c.FuncDef("f")
	b := c.BeginSnippet(id)
	e := c.EndSnippet(id)
	ec := &fakeEC{}
	b(ec)
	e(ec)
	c.Flush()
	if col.Len() != 2 {
		t.Fatalf("snippet events = %d", col.Len())
	}
}

func TestTraceBytesAccounting(t *testing.T) {
	c, _ := newTestCtx(nil)
	id := c.FuncDef("f")
	ec := &fakeEC{}
	for i := 0; i < 10; i++ {
		c.Begin(ec, id)
		c.End(ec, id)
	}
	if c.TraceBytes() != 20*EventBytes {
		t.Fatalf("trace bytes = %d", c.TraceBytes())
	}
}

func TestTraceWriteReadRoundTrip(t *testing.T) {
	c, col := newTestCtx(nil)
	id := c.FuncDef("compute")
	ec := &fakeEC{tid: 1, now: des.Millisecond}
	c.Begin(ec, id)
	ec.now = 2 * des.Millisecond
	c.End(ec, id)
	c.Flush()

	var buf bytes.Buffer
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round-trip events = %d", back.Len())
	}
	if back.FuncName(0, id) != "compute" {
		t.Fatalf("round-trip func name = %q", back.FuncName(0, id))
	}
	evs := back.Events()
	if evs[0] != col.Events()[0] || evs[1] != col.Events()[1] {
		t.Fatalf("round-trip events differ: %+v vs %+v", evs, col.Events())
	}
}

// Property: any set of events survives a write/read round trip, sorted by
// timestamp.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		col := NewCollector()
		col.AddFuncTable(0, map[int32]string{0: "f"})
		for _, r := range raw {
			col.Append([]Event{{
				At:   des.Time(r % 1_000_000),
				Rank: int32(r % 7),
				TID:  int32(r % 3),
				Kind: Kind(r % 11),
				ID:   int32(r % 5),
				A:    int64(r % 13),
				B:    int64(r % 17),
			}})
		}
		var buf bytes.Buffer
		if err := col.WriteTrace(&buf); err != nil {
			return false
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		a, b := col.Events(), back.Events()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"BOGUS 1 2 3",
		"EVT 1 2 3",
		"EVT x 0 0 enter 0 0 0",
		"EVT 1 0 0 notakind 0 0 0",
		"FUNC 1 2",
	} {
		if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadTrace(%q) accepted", bad)
		}
	}
}

// --- integration with the MPI and OpenMP runtimes ---

func runMPIWorld(t *testing.T, n int, col *Collector, cfg *Config,
	body func(c *mpi.Ctx, v *Ctx)) []*Ctx {
	t.Helper()
	s := des.NewScheduler(11)
	mach := machine.MustNew("ibm-power3")
	place, err := machine.Pack(mach, n)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(s, place)
	vts := make([]*Ctx, n)
	for r := 0; r < n; r++ {
		r := r
		vts[r] = NewCtx(Options{Rank: r, Config: cfg, Collector: col, TraceMPI: true})
		img := image.NewBuilder(fmt.Sprintf("app.%d", r)).Build()
		pr := proc.NewProcess(s, mach, fmt.Sprintf("rank%d", r), r, place.NodeOf(r), img)
		pr.Start(func(th *proc.Thread) {
			c := w.Register(r, th, &MPIAdapter{C: vts[r]})
			c.Init()
			body(c, vts[r])
			c.Finalize()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return vts
}

func TestMPIAdapterLogsTraffic(t *testing.T) {
	col := NewCollector()
	runMPIWorld(t, 2, col, nil, func(c *mpi.Ctx, v *Ctx) {
		if c.Rank() == 0 {
			c.Send(1, 3, 256, nil)
		} else {
			c.Recv(0, 3)
		}
	})
	var sends, recvs, apiEnters int
	for _, e := range col.Events() {
		switch e.Kind {
		case MsgSend:
			sends++
			if e.A != 1 || e.B != 256 {
				t.Errorf("send event = %+v", e)
			}
		case MsgRecv:
			recvs++
		case APIEnter:
			apiEnters++
		}
	}
	if sends != 1 || recvs != 1 {
		t.Fatalf("sends=%d recvs=%d", sends, recvs)
	}
	if apiEnters < 2 { // at least MPI_Send and MPI_Recv
		t.Fatalf("apiEnters = %d", apiEnters)
	}
}

func TestVTInitInsideMPIInit(t *testing.T) {
	col := NewCollector()
	vts := runMPIWorld(t, 2, col, nil, func(c *mpi.Ctx, v *Ctx) {
		if !v.Ready() {
			t.Error("VT not initialised after MPI_Init")
		}
	})
	for _, v := range vts {
		if !v.Ready() {
			t.Fatal("adapter did not initialise the library")
		}
	}
}

func TestConfSyncDistributesChanges(t *testing.T) {
	col := NewCollector()
	vts := runMPIWorld(t, 4, col, nil, func(c *mpi.Ctx, v *Ctx) {
		v.FuncDef("kernel")
		if c.Rank() == 0 {
			v.QueueChanges([]Change{{Pattern: "kernel", Active: false}})
		}
		n := v.ConfSync(c, false, nil)
		if n != 1 {
			t.Errorf("rank %d saw %d changes", c.Rank(), n)
		}
	})
	for r, v := range vts {
		if v.Active(v.FuncDef("kernel")) {
			t.Fatalf("rank %d did not apply the change", r)
		}
		if v.Generation() != 1 {
			t.Fatalf("rank %d generation = %d", r, v.Generation())
		}
	}
}

func TestConfSyncNoChanges(t *testing.T) {
	col := NewCollector()
	vts := runMPIWorld(t, 3, col, nil, func(c *mpi.Ctx, v *Ctx) {
		if n := v.ConfSync(c, false, nil); n != 0 {
			t.Errorf("unexpected changes: %d", n)
		}
	})
	for _, v := range vts {
		if v.Generation() != 1 {
			t.Fatalf("generation = %d", v.Generation())
		}
	}
}

func TestConfSyncStatsGatherToRoot(t *testing.T) {
	col := NewCollector()
	var statsBuf bytes.Buffer
	runMPIWorld(t, 3, col, nil, func(c *mpi.Ctx, v *Ctx) {
		id := v.FuncDef("work")
		ec := c.Thread()
		for i := 0; i <= c.Rank(); i++ {
			v.Begin(ec, id)
			v.End(ec, id)
		}
		v.ConfSync(c, true, &statsBuf)
	})
	out := statsBuf.String()
	for r := 0; r < 3; r++ {
		want := fmt.Sprintf("rank %d work %d", r, r+1)
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestConfSyncRecordsEvent(t *testing.T) {
	col := NewCollector()
	runMPIWorld(t, 2, col, nil, func(c *mpi.Ctx, v *Ctx) {
		v.ConfSync(c, false, nil)
	})
	count := 0
	for _, e := range col.Events() {
		if e.Kind == ConfSync {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("ConfSync events = %d, want one per rank", count)
	}
}

func TestOMPAdapterLogsRegions(t *testing.T) {
	s := des.NewScheduler(5)
	mach := machine.MustNew("ibm-power3")
	col := NewCollector()
	v := NewCtx(Options{Rank: 0, Collector: col, TraceOMP: true})
	v.Initialize(nil)
	pr := proc.NewProcess(s, mach, "omp", 0, 0, image.NewBuilder("omp").Build())
	pr.Start(func(master *proc.Thread) {
		rt := omp.New(pr, master, 4, &OMPAdapter{C: v})
		rt.Parallel(master, "sweep", func(th *proc.Thread, id int) { th.Work(1000) })
		rt.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	v.Flush()
	var forks, joins, enters int
	for _, e := range col.Events() {
		switch e.Kind {
		case RegionFork:
			forks++
		case RegionJoin:
			joins++
		case RegionEnter:
			enters++
		}
	}
	if forks != 1 || joins != 1 || enters != 4 {
		t.Fatalf("forks=%d joins=%d enters=%d", forks, joins, enters)
	}
	if col.FuncName(0, v.FuncDef("$omp$sweep")) != "$omp$sweep" {
		t.Fatal("region name not in function table")
	}
}
