package des

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines fails t unless the goroutine count falls back to base.
// A Proc's coroutine finishes synchronously when it is killed or returns,
// but Cluster workers may still be exiting after Run has been released.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// recoverProcPanic runs run, which must panic with a *ProcPanicError, and
// returns that error.
func recoverProcPanic(t *testing.T, run func()) (pe *ProcPanicError) {
	t.Helper()
	defer func() {
		var ok bool
		if pe, ok = recover().(*ProcPanicError); !ok {
			t.Fatalf("want a *ProcPanicError panic")
		}
	}()
	run()
	return nil
}

// spinner advances forever; it ends only when the simulation kills it.
func spinner(p *Proc) {
	for {
		p.Advance(Microsecond)
	}
}

// TestTeardownReleasesGoroutines checks that every way a simulation can end
// leaves no Proc coroutine behind, and that Kill releases one at once.
func TestTeardownReleasesGoroutines(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"clean", func(t *testing.T) {
			s := NewScheduler(1)
			m := NewMailbox(s, "box")
			s.Spawn("tx", func(p *Proc) { p.Advance(Microsecond); m.Put(1) })
			s.Spawn("rx", func(p *Proc) { p.Recv(m) })
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"stop", func(t *testing.T) {
			s := NewScheduler(1)
			s.Spawn("spin", spinner)
			s.At(10*Microsecond, s.Stop)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"deadlock", func(t *testing.T) {
			s := NewScheduler(1)
			g := NewGate("never", false)
			s.Spawn("stuck", func(p *Proc) { p.Await(g) })
			if _, ok := s.Run().(*DeadlockError); !ok {
				t.Fatal("want *DeadlockError")
			}
		}},
		{"livelock", func(t *testing.T) {
			s := NewScheduler(1, WithBudget(Budget{MaxEvents: 100}))
			s.Spawn("spin", spinner)
			if _, ok := s.Run().(*LivelockError); !ok {
				t.Fatal("want *LivelockError")
			}
		}},
		{"panic", func(t *testing.T) {
			s := NewScheduler(1)
			s.Spawn("spin", spinner)
			s.Spawn("bad", func(p *Proc) {
				p.Advance(Microsecond)
				panicInHelper()
			})
			pe := recoverProcPanic(t, func() { _ = s.Run() })
			if !strings.Contains(string(pe.Stack), "panicInHelper") {
				t.Errorf("Stack does not name the panic site:\n%s", pe.Stack)
			}
		}},
		{"kill", func(t *testing.T) {
			s := NewScheduler(1)
			victim := s.Spawn("victim", spinner)
			s.Spawn("bystander", func(p *Proc) { p.Advance(Millisecond) })
			s.At(5*Microsecond, func() {
				before := runtime.NumGoroutine()
				s.Kill(victim)
				if after := runtime.NumGoroutine(); after != before-1 {
					t.Errorf("Kill left %d goroutines, want %d", after, before-1)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"kill-unstarted", func(t *testing.T) {
			s := NewScheduler(1)
			ran := false
			s.At(Microsecond, func() {
				before := runtime.NumGoroutine()
				s.Kill(s.Spawn("never", func(p *Proc) { ran = true }))
				if after := runtime.NumGoroutine(); after != before {
					t.Errorf("Spawn then Kill left %d goroutines, want %d", after, before)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if ran {
				t.Error("a Proc killed before its first step ran its function")
			}
		}},
		{"cluster", func(t *testing.T) {
			c := NewCluster(4, Microsecond, 1, WithHostParallelism(4))
			for i := 0; i < 4; i++ {
				s := c.Shard(i)
				m := NewMailbox(s, "in")
				s.Spawn(fmt.Sprintf("rx%d", i), func(p *Proc) { p.Recv(m) })
				s.Spawn(fmt.Sprintf("tx%d", i), func(p *Proc) {
					p.Advance(Time(i+1) * Microsecond)
					s.Cast((i+1)%4, Microsecond, func() {})
					m.Put(i)
				})
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"cluster-panic", func(t *testing.T) {
			c := NewCluster(4, Microsecond, 1, WithHostParallelism(4))
			for i := 0; i < 4; i++ {
				c.Shard(i).Spawn(fmt.Sprintf("spin%d", i), spinner)
			}
			c.Shard(2).Spawn("bad", func(p *Proc) {
				p.Advance(3 * Microsecond)
				panicInHelper()
			})
			pe := recoverProcPanic(t, func() { _ = c.Run() })
			if pe.Proc != "bad" || !strings.Contains(string(pe.Stack), "panicInHelper") {
				t.Errorf("wrong panic attribution: %q\n%s", pe.Proc, pe.Stack)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			tc.run(t)
			waitGoroutines(t, base)
		})
	}
}

// TestDeadlockBlockedLabels pins the "name (op object)" entry a deadlock
// report gives for each blocking operation, on a Scheduler and a Cluster.
func TestDeadlockBlockedLabels(t *testing.T) {
	s := NewScheduler(1)
	s.Spawn("sleeper", func(p *Proc) { p.Advance(Second) })
	box := NewMailbox(s, "box")
	s.Spawn("rx", func(p *Proc) { p.Recv(box) })
	slow := NewMailbox(s, "slow")
	s.Spawn("rxt", func(p *Proc) { p.RecvTimeout(slow, Second) })
	g := NewGate("never", false)
	s.Spawn("stuck", func(p *Proc) { p.Await(g) })
	b := NewBarrier("pair", 2)
	s.Spawn("bar", func(p *Proc) { p.Arrive(b) })
	sem := NewSemaphore("lock", 0)
	s.Spawn("sem", func(p *Proc) { p.Acquire(sem) })
	s.Spawn("daemon", func(p *Proc) { p.SetDaemon(true); p.Recv(box) })
	s.Spawn("done", func(p *Proc) {})
	// Stop draining once every Proc has parked, while the sleeper's and
	// the timeout's wake-ups are still queued.
	if err := s.DrainUntil(func() bool { return s.Executed() == 8 }); err != nil {
		t.Fatal(err)
	}
	de, ok := s.Finish().(*DeadlockError)
	if !ok {
		t.Fatal("want *DeadlockError")
	}
	want := []string{
		"sleeper (advance)",
		"rx (recv box)",
		"rxt (recv-timeout slow)",
		"stuck (await never)",
		"bar (barrier pair)",
		"sem (acquire lock)",
	}
	if !reflect.DeepEqual(de.Blocked, want) {
		t.Errorf("Blocked = %q, want %q", de.Blocked, want)
	}

	c := NewCluster(2, Microsecond, 1)
	c.Shard(1).Spawn("stuck", func(p *Proc) { p.Await(g) })
	err := c.Run()
	if de, ok := err.(*DeadlockError); !ok || !reflect.DeepEqual(de.Blocked, []string{"stuck (await never)"}) {
		t.Errorf("Cluster.Run = %v, want stuck (await never) blocked", err)
	}
}
