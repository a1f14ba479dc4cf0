package guide

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

func runFaultedJob(t *testing.T, bin *Binary, n int, plan *fault.Plan) *Job {
	t.Helper()
	s := des.NewScheduler(21)
	mach := machine.MustNew("ibm-power3", machine.WithFaults(plan))
	j, err := Launch(s, mach, bin, LaunchOpts{Procs: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("faulted job did not finish")
	}
	return j
}

// TestCrashedRankJobTerminates: a rank crash mid-run must not hang the
// job — survivors degrade through their barriers and finalize.
func TestCrashedRankJobTerminates(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{StaticInstrument: true})
	if err != nil {
		t.Fatal(err)
	}
	j := runFaultedJob(t, bin, 4, &fault.Plan{
		Crashes:       []fault.Crash{{Rank: 1, At: 2 * des.Millisecond}},
		DetectTimeout: 20 * des.Millisecond,
	})
	if !j.World().Dead(1) {
		t.Error("crashed rank not marked dead")
	}
	if e := j.MainElapsed(); e <= 0 {
		t.Errorf("MainElapsed = %v on a degraded but finished job", e)
	}
	var sawCrash, sawDegrade bool
	for _, ev := range j.Faults() {
		switch ev.Kind {
		case fault.KindCrash:
			sawCrash = true
		case fault.KindDegrade:
			sawDegrade = true
		}
	}
	if !sawCrash || !sawDegrade {
		t.Errorf("fault stream missing crash/degrade events: %+v", j.Faults())
	}
}

// TestSlowdownStretchesJob: scaling one node's clock slows the whole
// bulk-synchronous job, and the configuration is visible on the stream.
func TestSlowdownStretchesJob(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	base := runJob(t, bin, 4).MainElapsed()
	slow := runFaultedJob(t, bin, 4, &fault.Plan{
		Slowdowns: []fault.Slowdown{{Node: 0, Factor: 3}},
	})
	if slow.MainElapsed() <= base {
		t.Errorf("slowdown run %v not slower than baseline %v", slow.MainElapsed(), base)
	}
	if evs := slow.Faults(); len(evs) != 1 || evs[0].Kind != fault.KindSlowdown {
		t.Errorf("fault stream = %+v, want one slowdown config event", evs)
	}
}

// TestBufferOverflowInJob: a tiny fault-capped trace buffer overflows
// under full instrumentation and lands on the job's fault stream.
func TestBufferOverflowInJob(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{StaticInstrument: true})
	if err != nil {
		t.Fatal(err)
	}
	j := runFaultedJob(t, bin, 2, &fault.Plan{
		TraceBufEvents: 4,
		Overflow:       fault.OverflowDropOldest,
	})
	// Per rank 18 enter/exit events into a 4-slot buffer.
	if n := j.Collector().Len(); n != 2*4 {
		t.Errorf("collector kept %d events, want 8 (two capped buffers)", n)
	}
	var overflows int
	for _, ev := range j.Faults() {
		if ev.Kind == fault.KindOverflow {
			overflows++
		}
	}
	if overflows == 0 {
		t.Error("no trace-overflow events on the fault stream")
	}
	for r := 0; r < 2; r++ {
		if j.VT(r).Overflows() == 0 {
			t.Errorf("rank %d saw no overflows", r)
		}
	}
}

// TestFaultFreeJobHasNoInjector: zero-plan machines stay on the exact
// pre-fault path.
func TestFaultFreeJobHasNoInjector(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	j := runJob(t, bin, 2)
	if j.FaultInjector() != nil || len(j.Faults()) != 0 {
		t.Error("fault-free job carries an injector")
	}
}

// TestLaunchWiresOneCtxPerRank: every rank of an MPI job gets its own VT
// library instance, carrying its rank and its placement node, and every
// instance feeds the job's one collector.
func TestLaunchWiresOneCtxPerRank(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{StaticInstrument: true, TraceMPI: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	s := des.NewScheduler(21)
	mach := machine.MustNew("ibm-power3", machine.WithFaults(&fault.Plan{
		TraceBufEvents: 4,
		Overflow:       fault.OverflowDropOldest,
	}))
	// Start on node 2 so the 12 ranks span nodes 2 and 3.
	j, err := Launch(s, mach, bin, LaunchOpts{Procs: n, Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[*vt.Ctx]bool{}
	for r := 0; r < n; r++ {
		v := j.VT(r)
		if seen[v] {
			t.Fatalf("rank %d shares a Ctx", r)
		}
		seen[v] = true
		if v.Rank() != r {
			t.Errorf("rank %d: Ctx.Rank() = %d", r, v.Rank())
		}
	}
	// Each instance overflows its 4-event buffer once and reports the
	// node it was built with.
	overflowNode := map[int]int{}
	for _, ev := range j.Faults() {
		if ev.Kind == fault.KindOverflow {
			overflowNode[ev.Rank] = ev.Node
		}
	}
	place := j.Placement()
	for r := 0; r < n; r++ {
		node, ok := overflowNode[r]
		if !ok {
			t.Errorf("rank %d logged no overflow", r)
		} else if want := place.NodeOf(r); node != want || want < 2 {
			t.Errorf("rank %d: overflow on node %d, want placement node %d", r, node, want)
		}
	}
	// Every instance (MPI wrapper events included) lands in the job's
	// collector.
	ranks := map[int32]bool{}
	for _, e := range j.Collector().Events() {
		ranks[e.Rank] = true
	}
	if len(ranks) != n || len(j.Collector().Ranks()) != n {
		t.Errorf("collector holds events of %d ranks and tables of %d, want %d",
			len(ranks), len(j.Collector().Ranks()), n)
	}
}
