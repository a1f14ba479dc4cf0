package exp

import (
	"reflect"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/guide"
)

// sessionCells are one cell of each shape that runs on the shared
// dynprof-session driver: the Dynamic policy (on a one-function subset,
// so its session is ready about when the others are), the Section 5.1
// hybrid and the adaptive controller. Each main computation is long
// enough that one instant lies after all three Starts and before any of
// them finishes.
func sessionCells() []cellSpec {
	app := &guide.App{
		Name:   "dynsession",
		Lang:   guide.MPIC,
		Funcs:  []guide.Func{{Name: "dynsession_compute", Size: 20}},
		Subset: []string{"dynsession_compute"},
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			for i := 0; i < 4; i++ {
				c.Call("dynsession_compute", func() { c.T.Work(50_000_000) })
				c.MPI.Barrier()
			}
			c.MPI.Finalize()
		},
	}
	return []cellSpec{
		RunSpec{AppDef: app, Policy: Dynamic, CPUs: 4, Seed: DefaultSeed},
		HybridSpec{WithPoints: true, Args: map[string]int{"nx": 8, "ny": 8, "nz": 8, "steps": 200}, Seed: DefaultSeed},
		AdaptSpec{App: "sppm", Seed: DefaultSeed},
	}
}

// TestSupervisedSessionDriver runs every dynprof-session cell shape under
// a DES budget that trips during session creation and one that trips
// after Start. Each cell must fail as a livelock, and the failure records
// must not depend on the Runner's parallelism.
func TestSupervisedSessionDriver(t *testing.T) {
	// The after-Start budget lies past every cell's ready time (the
	// target is released at Start) and before any cell's main computation
	// can have finished.
	dyn, err := Run(sessionCells()[0].(RunSpec))
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := runHybridCell(sessionCells()[1].(HybridSpec), des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	adp, _, err := adaptSession(sessionCells()[2].(AdaptSpec).norm(), des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	ready := max(dyn.CreateAndInstrument, hyb.CreateAndInstrument, adp.CreateAndInstrument)
	end := min(dyn.CreateAndInstrument+dyn.Elapsed, hyb.CreateAndInstrument+hyb.Elapsed, adp.CreateAndInstrument+adp.Elapsed)
	if ready >= end {
		t.Fatalf("no instant lies after every Start and before every finish: ready %v, end %v", ready, end)
	}
	budgets := map[string]des.Budget{
		"creation":    {MaxEvents: 1},
		"after-start": {MaxVirtual: (ready + end) / 2},
	}
	for name, bud := range budgets {
		t.Run(name, func(t *testing.T) {
			failures := func(parallelism int) []CellFailure {
				fig := &Figure{ID: "session", Title: "session driver"}
				var cells []planCell
				for i, spec := range sessionCells() {
					fig.Series = append(fig.Series, Series{Label: spec.Key()})
					cells = append(cells, planCell{series: i, cpus: 4, desc: spec.Key(), spec: spec,
						value: func(any) float64 { return 0 }})
				}
				r := NewRunner(Options{Parallelism: parallelism, Budget: bud})
				got, err := r.runPlan(&figurePlan{fig: fig, cells: cells})
				if err != nil {
					t.Fatal(err)
				}
				return got.Failures
			}
			seq, par := failures(1), failures(8)
			if len(seq) != len(sessionCells()) {
				t.Fatalf("%d failures, want one per cell: %+v", len(seq), seq)
			}
			for _, f := range seq {
				if f.Cause != CauseLivelock {
					t.Errorf("%s: cause %q, want %q (%s)", f.Key, f.Cause, CauseLivelock, f.Error)
				}
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("failure records differ between Parallelism 1 and 8:\n%+v\n%+v", seq, par)
			}
		})
	}
}
