package machine

import (
	"strings"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
)

func TestNewMatchesBuilders(t *testing.T) {
	ibm, err := New("ibm-power3")
	if err != nil {
		t.Fatal(err)
	}
	if *ibm != *ibmPower3() {
		t.Errorf("New(ibm-power3) = %+v differs from the ibmPower3 builder", *ibm)
	}
	ia32, err := New("ia32-linux")
	if err != nil {
		t.Fatal(err)
	}
	if *ia32 != *ia32Linux() {
		t.Errorf("New(ia32-linux) = %+v differs from the ia32Linux builder", *ia32)
	}
	// The legacy aliases resolve to the canonical presets, Name included.
	if m, err := New("ibm"); err != nil || *m != *ibmPower3() {
		t.Errorf("New(ibm) = %+v, %v; want the ibmPower3 builder", m, err)
	}
	if m, err := New("ia32"); err != nil || *m != *ia32Linux() {
		t.Errorf("New(ia32) = %+v, %v; want the ia32Linux builder", m, err)
	}
}

func TestNewOptions(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: des.Second}}}
	m := MustNew("ibm-power3",
		WithName("shrunk power3"),
		WithNodes(64),
		WithCPUsPerNode(4),
		WithClockHz(400e6),
		WithDaemonLatency(100*des.Microsecond),
		WithDaemonJitter(0.1),
		WithFaults(plan),
	)
	if m.Name != "shrunk power3" || m.Nodes != 64 || m.CPUsPerNode != 4 || m.ClockHz != 400e6 {
		t.Errorf("options not applied: %+v", m)
	}
	if m.DaemonLatency != 100*des.Microsecond || m.DaemonJitter != 0.1 {
		t.Errorf("daemon options not applied: %+v", m)
	}
	if m.FaultPlan() != plan {
		t.Error("fault plan not attached")
	}
	// The registry entry must be untouched by option application.
	if fresh := MustNew("ibm-power3"); fresh.Nodes != 144 || fresh.Faults != nil {
		t.Errorf("registry preset mutated: %+v", fresh)
	}
	net := Network{Latency: des.Microsecond, Bandwidth: 1e9, ShmLatency: des.Microsecond, ShmBandwidth: 1e9}
	if m2 := MustNew("ia32-linux", WithNetwork(net)); m2.Net != net {
		t.Errorf("WithNetwork not applied: %+v", m2.Net)
	}
}

func TestNewUnknownPreset(t *testing.T) {
	_, err := New("cray-t3e")
	if err == nil || !strings.Contains(err.Error(), "cray-t3e") || !strings.Contains(err.Error(), "ibm-power3") {
		t.Errorf("want unknown-preset error listing the registry, got %v", err)
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New("ibm-power3", WithNodes(0)); err == nil {
		t.Error("zero nodes must be rejected")
	}
	if _, err := New("ibm-power3", WithClockHz(-1)); err == nil {
		t.Error("negative clock must be rejected")
	}
	bad := &fault.Plan{Slowdowns: []fault.Slowdown{{Node: 0, Factor: 0.1}}}
	if _, err := New("ibm-power3", WithFaults(bad)); err == nil {
		t.Error("invalid fault plan must be rejected")
	}
}

func TestRegister(t *testing.T) {
	Register("test-mini", func() *Config {
		return &Config{Name: "mini", Nodes: 2, CPUsPerNode: 2, ClockHz: 1e9}
	})
	m := MustNew("test-mini", WithNodes(4))
	if m.Nodes != 4 || m.Name != "mini" {
		t.Errorf("registered preset not usable: %+v", m)
	}
	found := false
	for _, id := range Presets() {
		if id == "test-mini" {
			found = true
		}
	}
	if !found {
		t.Errorf("Presets() = %v missing test-mini", Presets())
	}
}

func TestWithFaultsZeroPlanIsFree(t *testing.T) {
	var nilPlan *fault.Plan
	a := MustNew("ibm-power3", WithFaults(nilPlan))
	b := MustNew("ibm-power3", WithFaults(&fault.Plan{}))
	if a.Faults != nil || b.Faults != nil {
		t.Error("zero plans must leave the machine fault-free")
	}
	if c := MustNew("ibm-power3").WithFaultPlan(nilPlan); c.Faults != nil {
		t.Error("WithFaultPlan(zero) must clear the plan")
	}
}

func TestWithFaultPlanClones(t *testing.T) {
	base := MustNew("ibm-power3")
	plan := &fault.Plan{CtrlLossProb: 0.5}
	faulted := base.WithFaultPlan(plan)
	if base.Faults != nil {
		t.Error("WithFaultPlan mutated the receiver")
	}
	if faulted.FaultPlan() != plan || faulted.Name != base.Name {
		t.Errorf("clone wrong: %+v", faulted)
	}
	if faulted.NodeClockScale(0) != 1.0 {
		t.Error("plan without slowdowns must not scale clocks")
	}
	slow := base.WithFaultPlan(&fault.Plan{Slowdowns: []fault.Slowdown{{Node: 2, Factor: 2}}})
	if slow.NodeClockScale(2) != 2.0 || slow.NodeClockScale(0) != 1.0 {
		t.Errorf("NodeClockScale wrong: %v %v", slow.NodeClockScale(2), slow.NodeClockScale(0))
	}
}

func TestNegativeConversionsPanic(t *testing.T) {
	c := MustNew("ibm-power3")
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, c.Name) {
				t.Errorf("%s: panic %v lacks machine context", name, r)
			}
		}()
		f()
	}
	expectPanic("CyclesToTime", func() { c.CyclesToTime(-1) })
	expectPanic("TimeToCycles", func() { c.TimeToCycles(-des.Second) })
	expectPanic("TransferTime", func() { c.TransferTime(0, 1, -8) })
}

func TestPlacementNodesPrealloc(t *testing.T) {
	c := MustNew("ibm-power3")
	p, err := Pack(c, 24)
	if err != nil {
		t.Fatal(err)
	}
	nodes := p.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("nodes = %v", nodes)
	}
	for i, n := range nodes {
		if n != i {
			t.Errorf("nodes[%d] = %d, want %d", i, n, i)
		}
	}
	if p.Config() != c {
		t.Error("Placement.Config lost the machine")
	}
	one, err := OneNode(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := one.Nodes(); len(got) != 1 || got[0] != 0 {
		t.Errorf("OneNode placement nodes = %v", got)
	}
}
