// Package adapt closes the instrumentation feedback loop the paper could
// only gesture at: a controller that rides the VT_confsync generation
// machinery, attributes per-probe cost each sync epoch, and emits
// configuration changes that deactivate the worst cost/benefit probes —
// with hysteresis and bounded re-insertion when headroom returns — so the
// run converges on a user-set perturbation budget.
//
// The controlled quantity is the *removable* overhead fraction: the cycles
// spent timestamping and recording events, which deactivation reclaims.
// The table-lookup floor every compiled-in probe pays regardless of
// activation (the reason Full-Off never reaches the uninstrumented time)
// is reported separately — no configuration change can remove it.
package adapt

import (
	"math"
	"sort"
)

// Fixed controller bounds.
const (
	// hysteresis sets the deadband below the budget: probes are
	// re-inserted only when overhead falls under Budget×(1−hysteresis),
	// so the controller does not thrash around the set point.
	hysteresis = 0.1
	// maxDeactivate bounds probes shed per epoch.
	maxDeactivate = 8
	// maxReactivate bounds probes re-inserted per epoch; smaller than the
	// shed bound so recovery is gentler than load-shedding.
	maxReactivate = 2
	// cooldownEpochs is how long a shed probe must stay out before it is
	// eligible for re-insertion.
	cooldownEpochs = 2
)

// ewmaAlpha weights the newest epoch in the per-probe cost estimate used
// to pick re-insertion candidates.
const ewmaAlpha = 0.5

// Config parameterises the controller.
type Config struct {
	// Budget is the target removable-overhead fraction, e.g. 0.05.
	Budget float64
	// EpochEvery folds this many sync-point crossings into one controller
	// epoch (0 = 1). Consumed by the attached Runtime; the pure
	// Controller sees only whole epochs.
	EpochEvery int
}

func (c Config) epochEvery() int {
	if c.EpochEvery <= 0 {
		return 1
	}
	return c.EpochEvery
}

// Probe is one function's cost attribution for a single epoch, aggregated
// across ranks.
type Probe struct {
	Name   string
	Active bool
	Hits   int64 // probe firings this epoch (active or not)
	Cycles int64 // removable cycles charged this epoch
}

// Epoch is one sync interval's measurement.
type Epoch struct {
	// Total is the cycles elapsed across all ranks this epoch
	// (instrumented work, not counting tool-suspended time).
	Total int64
	// Probes carries the per-function attribution.
	Probes []Probe
}

// Overhead is the epoch's removable-overhead fraction.
func (e Epoch) Overhead() float64 {
	if e.Total <= 0 {
		return 0
	}
	var oh int64
	for _, p := range e.Probes {
		if p.Active {
			oh += p.Cycles
		}
	}
	return float64(oh) / float64(e.Total)
}

// Decision is the controller's output for one epoch: functions to
// deactivate and to re-insert. Both lists are deterministic for a given
// measurement history.
type Decision struct {
	Deactivate []string
	Reactivate []string
}

// Empty reports whether the decision changes nothing.
func (d Decision) Empty() bool { return len(d.Deactivate) == 0 && len(d.Reactivate) == 0 }

// Controller is the feedback loop. It is a pure state machine: feed it one
// Epoch per sync interval and apply the returned Decision; it holds no
// reference to the simulation.
type Controller struct {
	cfg Config

	epoch      int
	cost       map[string]float64 // EWMA removable-cycle fraction while active
	disabledAt map[string]int     // epoch the controller shed the probe
	last       float64            // most recent epoch's overhead fraction
}

// NewController returns a controller targeting cfg.Budget.
func NewController(cfg Config) *Controller {
	return &Controller{
		cfg:        cfg,
		cost:       make(map[string]float64),
		disabledAt: make(map[string]int),
	}
}

// LastOverhead is the removable-overhead fraction of the most recently
// stepped epoch.
func (c *Controller) LastOverhead() float64 { return c.last }

// Epochs is how many epochs have been stepped.
func (c *Controller) Epochs() int { return c.epoch }

// Step consumes one epoch's measurement and decides what to change.
//
// Over budget: shed the highest-cost active probes (cycles descending,
// name ascending for determinism) until the projected overhead is at or
// under budget, bounded per epoch. Under the low watermark
// Budget×(1−hysteresis): re-insert the cheapest shed probes — by EWMA cost
// estimate — while the projection stays under the watermark, bounded and
// cooldown-gated. In the deadband: hold.
func (c *Controller) Step(e Epoch) Decision {
	c.epoch++
	over := e.Overhead()
	c.last = over
	if e.Total <= 0 {
		return Decision{}
	}
	total := float64(e.Total)

	// Update cost estimates for probes that ran active this epoch. Shed
	// probes keep their last estimate — it is the predicted cost of
	// re-inserting them.
	for _, p := range e.Probes {
		if !p.Active {
			continue
		}
		frac := float64(p.Cycles) / total
		if prev, ok := c.cost[p.Name]; ok {
			c.cost[p.Name] = ewmaAlpha*frac + (1-ewmaAlpha)*prev
		} else {
			c.cost[p.Name] = frac
		}
	}

	budget := c.cfg.Budget
	low := budget * (1 - hysteresis)
	var d Decision
	switch {
	case over > budget:
		active := make([]Probe, 0, len(e.Probes))
		for _, p := range e.Probes {
			if p.Active {
				active = append(active, p)
			}
		}
		sort.Slice(active, func(i, j int) bool {
			if active[i].Cycles != active[j].Cycles {
				return active[i].Cycles > active[j].Cycles
			}
			return active[i].Name < active[j].Name
		})
		projected := over
		for _, p := range active {
			if len(d.Deactivate) >= maxDeactivate || projected <= budget {
				break
			}
			if p.Cycles == 0 {
				break // the rest are free; shedding them gains nothing
			}
			d.Deactivate = append(d.Deactivate, p.Name)
			c.disabledAt[p.Name] = c.epoch
			projected -= float64(p.Cycles) / total
		}
	case over < low:
		type cand struct {
			name string
			est  float64
		}
		var cands []cand
		for _, p := range e.Probes {
			shedAt, shed := c.disabledAt[p.Name]
			if p.Active || !shed {
				continue // only re-insert what this controller shed
			}
			if c.epoch-shedAt < cooldownEpochs {
				continue
			}
			est := c.cost[p.Name]
			if est == 0 {
				est = math.SmallestNonzeroFloat64
			}
			cands = append(cands, cand{p.Name, est})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].est != cands[j].est {
				return cands[i].est < cands[j].est
			}
			return cands[i].name < cands[j].name
		})
		projected := over
		for _, cd := range cands {
			if len(d.Reactivate) >= maxReactivate {
				break
			}
			if projected+cd.est > low {
				continue // would overshoot the watermark; try a cheaper one
			}
			d.Reactivate = append(d.Reactivate, cd.name)
			delete(c.disabledAt, cd.name)
			projected += cd.est
		}
	}
	return d
}
