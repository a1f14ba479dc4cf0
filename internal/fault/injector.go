package fault

import (
	"fmt"
	"sort"

	"dynprof/internal/des"
)

// Kind classifies a structured fault event for the experiment JSONL
// stream. Values are stable strings, not iota, because they are part of
// the emitted wire format.
type Kind string

const (
	// KindSlowdown notes that a node's clock ran scaled for the whole run.
	KindSlowdown Kind = "node-slowdown"
	// KindStall notes a node freeze window that affected computation.
	KindStall Kind = "node-stall"
	// KindCrash notes a rank's process being killed.
	KindCrash Kind = "rank-crash"
	// KindCtrlDrop notes a lost DPCL control message.
	KindCtrlDrop Kind = "ctrl-drop"
	// KindCtrlRetry notes a client retransmission after an ack timeout.
	KindCtrlRetry Kind = "ctrl-retry"
	// KindCtrlTimeout notes a control transaction abandoned after the
	// retry budget was exhausted.
	KindCtrlTimeout Kind = "ctrl-timeout"
	// KindDegrade notes a collective completing without its dead ranks.
	KindDegrade Kind = "collective-degraded"
	// KindOverflow notes a trace buffer hitting its bound and the policy
	// that absorbed it.
	KindOverflow Kind = "trace-overflow"
	// KindDaemonCrash notes a communication daemon being killed.
	KindDaemonCrash Kind = "daemon-crash"
	// KindDaemonRestart notes a crashed daemon's respawn (new incarnation).
	KindDaemonRestart Kind = "daemon-restart"
	// KindLedgerReplay notes a client replaying its probe ledger against a
	// restarted daemon.
	KindLedgerReplay Kind = "ledger-replay"
	// KindCtrlStale notes a request fenced off by a daemon because it
	// carried a previous incarnation's number.
	KindCtrlStale Kind = "ctrl-stale"
)

// Event is one observed fault occurrence, suitable for the -jsonl stream.
// Node and Rank are -1 when not applicable.
type Event struct {
	// At is the virtual time of the occurrence.
	At des.Time `json:"at_ns"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Node is the affected node, -1 if not node-scoped.
	Node int `json:"node"`
	// Rank is the affected MPI rank, -1 if not rank-scoped.
	Rank int `json:"rank"`
	// Detail is a short human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("%.6fs %s", e.At.Seconds(), e.Kind)
	if e.Node >= 0 {
		s += fmt.Sprintf(" node=%d", e.Node)
	}
	if e.Rank >= 0 {
		s += fmt.Sprintf(" rank=%d", e.Rank)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Injector makes the plan's probabilistic decisions and accumulates the
// event log for one subsystem of one run. A nil *Injector is the
// fault-free identity: every decision method returns the pass-through
// answer without drawing randomness, so call sites need no nil checks.
//
// Injectors are confined to their scheduler's goroutine protocol like
// every other DES structure — one run, one (or a few) injectors, no
// cross-run sharing.
type Injector struct {
	plan   *Plan
	rng    *des.RNG
	events []Event
}

// NewInjector builds an injector for a plan. It returns nil — the no-op
// injector — for a zero plan, and in that case does NOT consume the rng
// argument, so fault-free runs draw exactly the RNG stream they always
// did. Callers typically pass a fresh Fork() of their scheduler RNG,
// lazily: `if !plan.IsZero() { inj = fault.NewInjector(plan, s.RNG().Fork()) }`
// or rely on this constructor being handed an already-forked stream only
// on the faulted path.
func NewInjector(plan *Plan, rng *des.RNG) *Injector {
	if plan.IsZero() {
		return nil
	}
	return &Injector{plan: plan, rng: rng}
}

// Plan exposes the plan (nil-safe; nil injector reports the zero plan).
func (in *Injector) Plan() *Plan {
	if in == nil {
		return nil
	}
	return in.plan
}

// DropCtrl decides whether one control message is lost. The nil injector
// never drops and never draws.
func (in *Injector) DropCtrl() bool {
	if in == nil || in.plan.CtrlLossProb == 0 {
		return false
	}
	if in.plan.CtrlLossProb >= 1 {
		return true
	}
	return in.rng.Float64() < in.plan.CtrlLossProb
}

// ScaleCtrl stretches a control-message latency by the plan's delay
// factor. The nil injector is the identity.
func (in *Injector) ScaleCtrl(d des.Time) des.Time {
	if in == nil {
		return d
	}
	f := in.plan.DelayFactor()
	if f == 1 {
		return d
	}
	return des.Time(float64(d) * f)
}

// Record appends a structured event to the log. No-op on nil.
func (in *Injector) Record(at des.Time, kind Kind, node, rank int, detail string) {
	if in == nil {
		return
	}
	in.events = append(in.events, Event{At: at, Kind: kind, Node: node, Rank: rank, Detail: detail})
}

// Events returns the accumulated log, sorted by time (stable within one
// instant, preserving emission order). Nil-safe.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	out := append([]Event(nil), in.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// MergeEvents combines several event logs into one time-sorted stream —
// e.g. the guide job's injector and the dpcl system's injector for a
// Dynamic-policy run.
func MergeEvents(logs ...[]Event) []Event {
	var out []Event
	for _, l := range logs {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
