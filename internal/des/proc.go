//go:build go1.23

package des

import (
	"errors"
	"iter"
	"runtime/debug"
)

// errAborted is panicked inside a Proc when the scheduler tears the
// simulation down; the Spawn wrapper recovers it so the coroutine finishes
// cleanly. It must never escape the des package.
var errAborted = errors.New("des: proc aborted")

// Proc is a simulated sequential process: a coroutine that runs real Go
// code but yields to the Scheduler whenever it performs a simulation
// operation (Advance, Recv, Await, Arrive, ...). The Scheduler resumes at
// most one Proc at a time, so a Proc may be resumed from different host
// goroutines (Cluster workers) but never from two at once.
type Proc struct {
	s       *Scheduler
	name    string
	next    func() (struct{}, bool)
	yield   func(struct{}) bool
	done    bool
	killed  bool
	started bool
	daemon  bool
	// blockedOp and blockedObj name what the Proc is parked on; they are
	// joined only into a DeadlockError, so parking allocates nothing.
	blockedOp, blockedObj string
	steps                 uint64
	// recv is the waiter every Recv queues: a Proc waits on at most one
	// mailbox at a time.
	recv mboxWaiter
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
	p := &Proc{s: s, name: name}
	p.recv.p = p
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != errAborted {
				s.fatal = &ProcPanicError{Proc: p.name, Value: r, Stack: debug.Stack()}
			}
			p.done = true
		}()
		if p.killed {
			return
		}
		p.yield, p.started = yield, true
		fn(p)
	})
	s.procs = append(s.procs, p)
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
	p.next()
}

// kill resumes p until it finishes, with killed set so that it unwinds
// out of park; a Proc that never started finishes without running fn.
func (p *Proc) kill() {
	p.killed = true
	for !p.done {
		p.next()
	}
}

// park suspends the calling Proc until the scheduler resumes it. The caller
// must already have arranged for a wake-up event (or be waiting on a
// primitive that will deliver one).
func (p *Proc) park(op, obj string) {
	p.blockedOp, p.blockedObj = op, obj
	p.yield(struct{}{})
	if p.killed {
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
	p.park("advance", "")
}
