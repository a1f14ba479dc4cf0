package vt

import (
	"reflect"
	"strings"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/machine"
	"dynprof/internal/mpi"
)

func worldForAttach(t *testing.T, n int) *mpi.World {
	t.Helper()
	s := des.NewScheduler(11)
	place, err := machine.Pack(machine.MustNew("ibm-power3"), n)
	if err != nil {
		t.Fatal(err)
	}
	return mpi.NewWorld(s, place)
}

// collectorFlavours are the two collector constructors; the event-count
// overflow policies must behave identically on both.
var collectorFlavours = []struct {
	name string
	new  func() *Collector
}{
	{"verbatim", NewCollector},
	{"compact", NewCompactCollector},
}

// forEachFlavour runs fn as one subtest per collector flavour.
func forEachFlavour(t *testing.T, fn func(t *testing.T, newCol func() *Collector)) {
	for _, fl := range collectorFlavours {
		t.Run(fl.name, func(t *testing.T) { fn(t, fl.new) })
	}
}

func overflowCtx(t *testing.T, newCol func() *Collector, cap int, policy fault.OverflowPolicy) (*Ctx, *Collector, *fault.Injector) {
	t.Helper()
	col := newCol()
	t.Cleanup(col.Release)
	inj := fault.NewInjector(&fault.Plan{TraceBufEvents: cap, Overflow: policy}, des.NewRNG(1))
	c := NewCtx(Options{Rank: 0, Collector: col, BufferEvents: cap, Overflow: policy, Faults: inj, Node: 3})
	c.Initialize(nil)
	return c, col, inj
}

// TestOverflowFlushEarly: a full buffer is drained to the collector,
// charging the thread, and the arriving event starts the next buffer.
// Flushing early changes when data moves, not what is recorded: the
// merged trace equals that of an unbudgeted Ctx.
func TestOverflowFlushEarly(t *testing.T) {
	forEachFlavour(t, func(t *testing.T, newCol func() *Collector) {
		c, col, inj := overflowCtx(t, newCol, 8, fault.OverflowFlushEarly)
		id := c.FuncDef("f")
		ec := &fakeEC{}
		for i := 0; i < 20; i++ {
			ec.now = des.Time(i) * des.Microsecond
			c.Begin(ec, id)
		}
		// Buffers of 8 flushed at events 9 and 17; 4 remain buffered.
		if col.Len() != 16 || c.Overflows() != 2 || c.MidRunFlushes() != 2 {
			t.Fatalf("col=%d overflows=%d flushes=%d, want 16/2/2", col.Len(), c.Overflows(), c.MidRunFlushes())
		}
		base := int64(20) * (lookupCycles + recordCycles)
		if ec.charged != base+16*flushCyclesPerEvent {
			t.Errorf("charged %d, want %d", ec.charged, base+16*flushCyclesPerEvent)
		}
		c.Flush()
		if col.Len() != 20 {
			t.Errorf("total events = %d, want 20 (nothing lost)", col.Len())
		}
		evs := inj.Events()
		if len(evs) != 2 || evs[0].Kind != fault.KindOverflow || evs[0].Node != 3 {
			t.Errorf("fault events = %+v, want 2 overflow events on node 3", evs)
		}

		ref := NewCollector()
		defer ref.Release()
		rc := NewCtx(Options{Collector: ref})
		rc.Initialize(nil)
		rid := rc.FuncDef("f")
		rec := &fakeEC{}
		for i := 0; i < 20; i++ {
			rec.now = des.Time(i) * des.Microsecond
			rc.Begin(rec, rid)
		}
		rc.Flush()
		if !reflect.DeepEqual(col.Events(), ref.Events()) {
			t.Error("flush-early trace diverges from unbudgeted reference")
		}
	})
}

// TestOverflowDropOldest: the buffer stays at capacity, keeping the most
// recent events; one fault event notes the loss per thread.
func TestOverflowDropOldest(t *testing.T) {
	forEachFlavour(t, func(t *testing.T, newCol func() *Collector) {
		c, col, inj := overflowCtx(t, newCol, 5, fault.OverflowDropOldest)
		id := c.FuncDef("f")
		ec := &fakeEC{}
		for i := 0; i < 30; i++ {
			ec.now = des.Time(i) * des.Millisecond
			c.Begin(ec, id)
		}
		c.Flush()
		if col.Len() != 5 {
			t.Fatalf("kept %d events, want capacity 5", col.Len())
		}
		evs := col.Events()
		if evs[0].At != 25*des.Millisecond || evs[4].At != 29*des.Millisecond {
			t.Errorf("kept window [%v, %v], want the newest 5 events", evs[0].At, evs[4].At)
		}
		if c.Overflows() != 25 {
			t.Errorf("overflows = %d, want 25", c.Overflows())
		}
		if got := inj.Events(); len(got) != 1 || !strings.Contains(got[0].Detail, "dropping oldest") {
			t.Errorf("fault log = %+v, want a single drop-oldest note", got)
		}
	})
}

// TestOverflowDisableProbe: the offending probe is deactivated — later
// calls pay only the lookup and record nothing — and one fault event
// names the disabled function.
func TestOverflowDisableProbe(t *testing.T) {
	forEachFlavour(t, func(t *testing.T, newCol func() *Collector) {
		c, col, inj := overflowCtx(t, newCol, 4, fault.OverflowDisableProbe)
		f := c.FuncDef("hot")
		g := c.FuncDef("cold")
		ec := &fakeEC{}
		for i := 0; i < 10; i++ {
			c.Begin(ec, f)
		}
		if c.Active(f) {
			t.Fatal("overflowing probe still active")
		}
		if c.Calls(f) != 5 {
			// 4 buffered + the call that tripped the overflow; later calls
			// are gated off by the deactivation table.
			t.Errorf("calls(f) = %d, want 5", c.Calls(f))
		}
		// The buffer is full, so another function immediately trips the
		// policy too.
		c.Begin(ec, g)
		if c.Active(g) {
			t.Error("second probe not disabled by full buffer")
		}
		c.Flush()
		if col.Len() != 4 {
			t.Errorf("kept %d events, want the 4 buffered before disabling", col.Len())
		}
		var names []string
		for _, ev := range inj.Events() {
			names = append(names, ev.Detail)
		}
		if len(names) != 2 || !strings.Contains(names[0], "hot") || !strings.Contains(names[1], "cold") {
			t.Errorf("fault log = %v, want one disable note per function", names)
		}
	})
}

// TestAttachBuildsPerRankCtxs: Attach gives every rank its own library
// instance on a shared collector, with buffer options applied.
func TestAttachRanks(t *testing.T) {
	w := worldForAttach(t, 4)
	att := Attach(w, WithConfigText("SYMBOL omp_* OFF"), WithTraceMPI(),
		WithBuffer(64, fault.OverflowDropOldest))
	if att.Size() != 4 {
		t.Fatalf("attachment size = %d", att.Size())
	}
	seen := map[*Ctx]bool{}
	for r := 0; r < 4; r++ {
		c := att.Ctx(r)
		if seen[c] {
			t.Fatalf("rank %d shares a Ctx", r)
		}
		seen[c] = true
		if c.Rank() != r || c.col != att.Collector() {
			t.Errorf("rank %d miswired: rank=%d", r, c.Rank())
		}
		if c.bufCap != 64 || c.overflow != fault.OverflowDropOldest || !c.traceMPI {
			t.Errorf("rank %d options not applied", r)
		}
		c.Initialize(nil)
		if c.Active(c.FuncDef("omp_loop")) {
			t.Errorf("rank %d config text not applied", r)
		}
	}
}

// TestAttachLocalOMP: a local attachment has one instance and OMP hooks.
func TestAttachLocal(t *testing.T) {
	att := AttachLocal(2, WithTraceOMP(), WithCountOnly())
	if att.Size() != 1 {
		t.Fatalf("local attachment size = %d", att.Size())
	}
	c := att.Ctx(0)
	if !c.traceOMP || !c.countOnly || c.node != 2 {
		t.Error("local options not applied")
	}
	if att.OMPHooks().C != c {
		t.Error("OMP hooks bound to the wrong instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("Bind on a local attachment must panic")
		}
	}()
	att.Bind(0, nil)
}
