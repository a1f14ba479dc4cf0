package adapt

import (
	"fmt"
	"reflect"
	"testing"
)

// plant is a synthetic instrumented application: each probe charges a
// fixed removable cost per epoch while active.
type plant struct {
	names  []string
	cost   map[string]int64
	active map[string]bool
	total  int64
}

func newPlant(total int64, costs map[string]int64) *plant {
	p := &plant{cost: costs, active: make(map[string]bool), total: total}
	for name := range costs {
		p.names = append(p.names, name)
		p.active[name] = true
	}
	// Deterministic epoch order.
	for i := range p.names {
		for j := i + 1; j < len(p.names); j++ {
			if p.names[j] < p.names[i] {
				p.names[i], p.names[j] = p.names[j], p.names[i]
			}
		}
	}
	return p
}

func (p *plant) epoch() Epoch {
	e := Epoch{Total: p.total}
	for _, name := range p.names {
		pr := Probe{Name: name, Active: p.active[name], Hits: 100}
		if pr.Active {
			pr.Cycles = p.cost[name]
		}
		e.Probes = append(e.Probes, pr)
	}
	return e
}

func (p *plant) apply(d Decision) {
	for _, n := range d.Deactivate {
		p.active[n] = false
	}
	for _, n := range d.Reactivate {
		p.active[n] = true
	}
}

func (p *plant) run(c *Controller, epochs int) []Decision {
	var ds []Decision
	for i := 0; i < epochs; i++ {
		d := c.Step(p.epoch())
		p.apply(d)
		ds = append(ds, d)
	}
	return ds
}

// TestControllerSheds: a plant at 20% overhead against a 5% budget must
// shed its most expensive probes first and settle at or under budget.
func TestControllerSheds(t *testing.T) {
	costs := map[string]int64{}
	for i := 0; i < 10; i++ {
		costs[fmt.Sprintf("f%02d", i)] = int64(2_000 * (i + 1)) // 2k..20k
	}
	p := newPlant(550_000, costs) // sum=110k → 20% overhead
	c := NewController(Config{Budget: 0.05})
	p.run(c, 10)
	if got := p.epoch().Overhead(); got > 0.05 {
		t.Fatalf("converged overhead %.4f > budget 0.05", got)
	}
	// The heaviest probe must be among the shed ones.
	if p.active["f09"] {
		t.Fatalf("heaviest probe f09 still active after convergence")
	}
	// Something must be retained: shedding everything would overshoot.
	var on int
	for _, a := range p.active {
		if a {
			on++
		}
	}
	if on == 0 {
		t.Fatalf("controller shed every probe; expected partial retention")
	}
}

// TestControllerShedBound: however far over budget, one epoch sheds at
// most maxDeactivate probes, heaviest first (equal costs: by name).
func TestControllerShedBound(t *testing.T) {
	costs := map[string]int64{}
	for i := 0; i < 10; i++ {
		costs[fmt.Sprintf("p%02d", i)] = 10_000
	}
	p := newPlant(200_000, costs) // 50% overhead against a 5% budget
	d := NewController(Config{Budget: 0.05}).Step(p.epoch())
	want := []string{"p00", "p01", "p02", "p03", "p04", "p05", "p06", "p07"}
	if !reflect.DeepEqual(d.Deactivate, want) {
		t.Fatalf("shed %v in one epoch, want %v", d.Deactivate, want)
	}
}

// TestControllerReactivates: when load disappears, shed probes come back —
// bounded per epoch, after the cooldown, without breaching the watermark.
func TestControllerReactivates(t *testing.T) {
	costs := map[string]int64{"hot": 80_000, "warm": 4_000, "cool": 1_000}
	p := newPlant(1_000_000, costs) // 8.5% overhead
	c := NewController(Config{Budget: 0.05})
	d := c.Step(p.epoch())
	p.apply(d)
	if !reflect.DeepEqual(d.Deactivate, []string{"hot"}) {
		t.Fatalf("expected to shed exactly [hot], got %v", d.Deactivate)
	}
	// Now at 0.5%: far under the 4.5% watermark. hot's estimated cost (8%)
	// would breach it, so only the unshed probes stay; nothing to bring
	// back until the cooldown passes, and even then hot must stay out.
	for i := 0; i < 5; i++ {
		d = c.Step(p.epoch())
		p.apply(d)
		if len(d.Deactivate) > 0 {
			t.Fatalf("epoch %d: unexpected deactivation %v", i, d.Deactivate)
		}
		for _, n := range d.Reactivate {
			if n == "hot" {
				t.Fatalf("epoch %d: reactivated hot, whose cost breaches the watermark", i)
			}
		}
	}
	if p.active["hot"] {
		t.Fatalf("hot must remain shed")
	}

	// A probe the watermark can absorb does come back after cooldown.
	p2 := newPlant(1_000_000, map[string]int64{"a": 60_000, "b": 20_000})
	c2 := NewController(Config{Budget: 0.05})
	d = c2.Step(p2.epoch()) // 8% → sheds a
	p2.apply(d)
	if !reflect.DeepEqual(d.Deactivate, []string{"a"}) {
		t.Fatalf("expected to shed [a], got %v", d.Deactivate)
	}
	var back bool
	for i := 0; i < 6; i++ {
		d = c2.Step(p2.epoch())
		p2.apply(d)
		for _, n := range d.Reactivate {
			if n == "b" {
				t.Fatalf("b was never shed; must not be reactivated")
			}
			back = back || n == "a"
		}
	}
	// a costs 6% est; watermark 4.5%; current 2% → 2%+6% > 4.5% so it must
	// NOT come back either. Verify the controller holds rather than
	// thrashing between shed and re-insert.
	if back {
		t.Fatalf("a reactivated although its estimated cost breaches the watermark")
	}
	if got := p2.epoch().Overhead(); got > 0.05 {
		t.Fatalf("held overhead %.4f > budget", got)
	}

	// A genuinely cheap shed probe is re-inserted once headroom returns.
	p3 := newPlant(1_000_000, map[string]int64{"big": 70_000, "tiny": 2_000})
	c3 := NewController(Config{Budget: 0.05})
	d = c3.Step(p3.epoch()) // 7.2% → sheds big (largest first), now 0.2%
	p3.apply(d)
	if !reflect.DeepEqual(d.Deactivate, []string{"big"}) {
		t.Fatalf("expected to shed [big], got %v", d.Deactivate)
	}
	// Shed tiny too, by hand, marking it controller-shed via a second
	// over-budget epoch is impossible at 0.2% — so drive it: force a
	// synthetic epoch where only tiny is expensive.
	p3.active["tiny"] = false
	// tiny was not shed by the controller, so it is not eligible for
	// re-insertion — the controller only undoes its own decisions.
	for i := 0; i < 4; i++ {
		d = c3.Step(p3.epoch())
		p3.apply(d)
		for _, n := range d.Reactivate {
			if n == "tiny" {
				t.Fatalf("controller reactivated tiny, which it never shed")
			}
		}
	}
}

// TestControllerDeterminism: identical epoch streams produce identical
// decision streams.
func TestControllerDeterminism(t *testing.T) {
	mk := func() []Decision {
		costs := map[string]int64{}
		for i := 0; i < 16; i++ {
			costs[fmt.Sprintf("g%02d", i)] = int64(1_500 * (i%5 + 1))
		}
		p := newPlant(400_000, costs)
		return p.run(NewController(Config{Budget: 0.04}), 12)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("decision streams differ:\n%v\n%v", a, b)
	}
}

// TestControllerZeroTotal: an empty epoch must not panic or divide by zero.
func TestControllerZeroTotal(t *testing.T) {
	c := NewController(Config{Budget: 0.05})
	d := c.Step(Epoch{})
	if !d.Empty() {
		t.Fatalf("empty epoch produced decision %v", d)
	}
	if c.LastOverhead() != 0 {
		t.Fatalf("LastOverhead = %v, want 0", c.LastOverhead())
	}
}
