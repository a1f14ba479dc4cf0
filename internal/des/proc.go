package des

import (
	"errors"
	"runtime/debug"
)

// errAborted is panicked inside a Proc goroutine when the scheduler tears
// the simulation down; the Spawn wrapper recovers it so the goroutine exits
// cleanly. It must never escape the des package.
var errAborted = errors.New("des: proc aborted")

type resumeMsg struct {
	abort bool
}

// Proc is a simulated sequential process: a goroutine that runs real Go
// code but yields to the Scheduler whenever it performs a simulation
// operation (Advance, Recv, Await, Arrive, ...). The Scheduler resumes at
// most one Proc at a time.
type Proc struct {
	s         *Scheduler
	name      string
	resume    chan resumeMsg
	parked    chan struct{}
	done      bool
	killed    bool
	started   bool
	daemon    bool
	blockedOn string
	steps     uint64
}

// SetDaemon marks the Proc as a service process: one that legitimately
// blocks forever waiting for requests. Daemon Procs are exempt from the
// scheduler's end-of-run deadlock check and are torn down with the
// simulation.
func (p *Proc) SetDaemon(v bool) { p.daemon = v }

// Spawn creates a Proc named name running fn. The Proc starts executing at
// the current virtual time, once Run processes its start event. Spawn may
// be called before Run or from inside any event or Proc.
func (s *Scheduler) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		s:      s,
		name:   name,
		resume: make(chan resumeMsg),
		parked: make(chan struct{}),
	}
	s.procs = append(s.procs, p)
	go func() {
		defer func() {
			if r := recover(); r != nil && r != errAborted {
				s.fatal = &ProcPanicError{Proc: p.name, Value: r, Stack: debug.Stack()}
			}
			p.done = true
			p.parked <- struct{}{}
		}()
		msg := <-p.resume
		p.started = true
		if msg.abort {
			panic(errAborted)
		}
		fn(p)
	}()
	s.resumeAfter(0, p)
	return p
}

// step transfers control to p until it parks again (blocks on a simulation
// operation) or finishes. It must only be called from event context.
func (s *Scheduler) step(p *Proc) {
	if p.done {
		return
	}
	p.steps++
	p.resume <- resumeMsg{abort: p.killed}
	<-p.parked
}

// park suspends the calling Proc until the scheduler resumes it. The caller
// must already have arranged for a wake-up event (or be waiting on a
// primitive that will deliver one).
func (p *Proc) park(what string) {
	p.blockedOn = what
	p.parked <- struct{}{}
	msg := <-p.resume
	p.blockedOn = ""
	if msg.abort {
		panic(errAborted)
	}
}

// wake schedules an immediate event that resumes p. Safe to call from any
// event or Proc context.
func (p *Proc) wake() { p.s.resumeAfter(0, p) }

// Name reports the Proc's name (used in deadlock reports and traces).
func (p *Proc) Name() string { return p.name }

// Scheduler returns the Scheduler driving p.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Advance blocks p for d of virtual time, modelling computation or delay.
// Advance(0) yields to other runnable Procs at the same timestamp.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("des: Advance with negative duration")
	}
	p.s.resumeAfter(d, p)
	p.park("advance")
}
