package exp

import (
	"reflect"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/vt"
)

// scaleTestRanks keeps unit-test cells small; the sweep sizes live in
// scaleRanks and are exercised by the scale smoke in verify.sh.
const scaleTestRanks = 256

// TestScaleShardCountInvariant pins the skeletons' design guarantee: the
// simulated result of a scale cell does not depend on how the machine is
// sharded. Together with des.TestSingleShardMatchesSerial this is the
// golden-equivalence chain from the serial scheduler to any shard count.
// It also pins the trace volume the in-memory collectors hold: 16 events
// per rank at the fixed per-event record size.
func TestScaleShardCountInvariant(t *testing.T) {
	for _, app := range scaleApps {
		var base ScaleResult
		for i, shards := range []int{1, 4, 8} {
			got, err := runScaleCell(ScaleSpec{App: app, Ranks: scaleTestRanks, Shards: shards}, des.Budget{})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", app, shards, err)
			}
			if got.Events == 0 || got.Elapsed == 0 {
				t.Fatalf("%s shards=%d: degenerate result %+v", app, shards, got)
			}
			if got.TraceEvents != 16*scaleTestRanks || got.TraceBytes != got.TraceEvents*vt.EventBytes {
				t.Errorf("%s shards=%d: trace %d events / %d bytes, want %d / %d", app, shards,
					got.TraceEvents, got.TraceBytes, 16*scaleTestRanks, 16*scaleTestRanks*vt.EventBytes)
			}
			if i == 0 {
				base = got
				continue
			}
			if got.Elapsed != base.Elapsed || got.Events != base.Events ||
				got.TraceEvents != base.TraceEvents || got.TraceBytes != base.TraceBytes {
				t.Errorf("%s: shards=%d diverges from shards=1:\n  %+v\n  %+v", app, shards, got, base)
			}
		}
	}
}

// TestScaleDeterministicAcrossHostParallelism pins bit-identical results
// for a fixed (seed, shard count) at any host worker count.
func TestScaleDeterministicAcrossHostParallelism(t *testing.T) {
	spec := ScaleSpec{App: "smg98", Ranks: scaleTestRanks, Shards: 8, Seed: 7}
	spec.HostParallelism = 1
	serial, err := runScaleCell(spec, des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		spec.HostParallelism = workers
		got, err := runScaleCell(spec, des.Budget{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d changed the result:\n  %+v\n  %+v", workers, got, serial)
		}
	}
}

// TestScaleStoreRoundTrip persists a real scale cell's result and reloads
// it through the journal.
func TestScaleStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := ScaleSpec{App: "sweep3d", Ranks: 64}
	res, err := runScaleCell(spec, des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(spec.Key(), res); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, ok := st2.Get(spec.Key())
	if !ok {
		t.Fatal("scale record lost across reload")
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("reloaded %+v, want %+v", got, res)
	}
}

func TestScaleSpecKeyDefaults(t *testing.T) {
	implicit := ScaleSpec{App: "smg98", Ranks: 2048}
	explicit := ScaleSpec{
		App: "smg98", Ranks: 2048,
		Shards: DefaultScaleShards, Iters: DefaultScaleIters,
		Machine: scaleMachine(2048), Seed: 0,
	}
	if implicit.Key() != explicit.Key() {
		t.Errorf("defaulted key %q != explicit key %q", implicit.Key(), explicit.Key())
	}
	// The harness knob must not leak into the key.
	tuned := implicit
	tuned.HostParallelism = 3
	if tuned.Key() != implicit.Key() {
		t.Errorf("harness knob leaked into key: %q", tuned.Key())
	}
	if s := (ScaleSpec{App: "smg98", Ranks: 2048, Shards: 2}); s.Key() == implicit.Key() {
		t.Error("shard count must be part of the key")
	}
}

func TestScaleValidates(t *testing.T) {
	if _, err := runScaleCell(ScaleSpec{App: "nosuch", Ranks: 64}, des.Budget{}); err == nil {
		t.Error("unknown app must fail")
	}
	if _, err := runScaleCell(ScaleSpec{App: "smg98"}, des.Budget{}); err == nil {
		t.Error("zero ranks must fail")
	}
}

// TestScaleMachineGrows pins the default machine scaling: the preset is
// used as-is while it fits, and grown node-for-node (never shrunk, never
// renamed in place) beyond 1152 ranks.
func TestScaleMachineGrows(t *testing.T) {
	small := scaleMachine(256)
	if small.Nodes != 144 {
		t.Errorf("256 ranks: %d nodes, want the stock 144", small.Nodes)
	}
	big := scaleMachine(16384)
	if big.Nodes != 2048 {
		t.Errorf("16384 ranks: %d nodes, want 2048", big.Nodes)
	}
	if big.Name == small.Name {
		t.Error("grown machine must carry a distinct name (names feed spec keys)")
	}
	if big.Net != small.Net || big.CPUsPerNode != small.CPUsPerNode || big.ClockHz != small.ClockHz {
		t.Error("growing the machine must only add nodes")
	}
}
