// Package serve implements the multi-tenant dynprof session server: a
// persistent registry of simulated jobs that many concurrent tool sessions
// instrument at once. It layers three policies over the single-tool core:
// admission control (sessions past a concurrency limit queue or are
// rejected), per-session quotas (probes, trace bytes, control-op rate), and
// round-robin scheduling of daemon service time so one chatty tenant
// cannot starve the others — the shared-daemon economics ScALPEL argues
// for, applied to the paper's per-node super/comm daemon structure.
package serve

import (
	"dynprof/internal/des"
)

// FairSched arbitrates communication-daemon service time between the users
// sharing each node, in virtual time. It implements dpcl.ServeGate: every
// costed daemon-side action on a node passes through one per-node lane,
// and when the lane is contended, waiting requests are served in
// round-robin order over users — one request per user per turn. Within a
// user, requests stay FIFO.
type FairSched struct {
	lanes  map[int]*lane
	served map[string]int
	waits  map[string]des.Time
}

// lane is one node's service queue. Invariant: a user appears in rr if and
// only if it has an entry in q (possibly drained-empty until pick retires
// it at the head).
type lane struct {
	busy bool
	rr   []string               // round-robin order of users with queued work
	q    map[string][]*des.Gate // per-user FIFO of waiting requests
}

// NewFairSched creates a scheduler.
func NewFairSched() *FairSched {
	return &FairSched{
		lanes:  make(map[int]*lane),
		served: make(map[string]int),
		waits:  make(map[string]des.Time),
	}
}

// Served reports how many requests have been served for user.
func (f *FairSched) Served(user string) int { return f.served[user] }

// WaitTime reports user's accumulated virtual queueing delay.
func (f *FairSched) WaitTime(user string) des.Time { return f.waits[user] }

func (f *FairSched) lane(node int) *lane {
	ln, ok := f.lanes[node]
	if !ok {
		ln = &lane{q: make(map[string][]*des.Gate)}
		f.lanes[node] = ln
	}
	return ln
}

// Serve implements dpcl.ServeGate: it spends cost of daemon time on node
// on behalf of user, waiting for the lane when other users hold it. p is
// the serving daemon's Proc.
func (f *FairSched) Serve(p *des.Proc, node int, user, kind string, cost des.Time) {
	ln := f.lane(node)
	if ln.busy {
		g := des.NewGate("fair."+user, false)
		f.enqueue(ln, user, g)
		t0 := p.Now()
		p.Await(g)
		f.waits[user] += p.Now() - t0
	} else {
		ln.busy = true
	}
	p.Advance(cost)
	f.served[user]++
	f.pick(ln)
}

func (f *FairSched) enqueue(ln *lane, user string, g *des.Gate) {
	if _, ok := ln.q[user]; !ok {
		ln.rr = append(ln.rr, user)
	}
	ln.q[user] = append(ln.q[user], g)
}

// pick hands the lane to the next request in round-robin order, or marks
// it idle.
func (f *FairSched) pick(ln *lane) {
	for len(ln.rr) > 0 {
		head := ln.rr[0]
		hq := ln.q[head]
		if len(hq) == 0 {
			// Drained: retire the user from the rotation.
			delete(ln.q, head)
			ln.rr = ln.rr[1:]
			continue
		}
		g := hq[0]
		ln.q[head] = hq[1:]
		if len(ln.rr) > 1 {
			// Turn spent: rotate the user to the back of the ring.
			ln.rr = append(ln.rr[1:], head)
		}
		g.Set(true) // the woken request Advances, then picks again
		return
	}
	ln.busy = false
}
