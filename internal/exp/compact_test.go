package exp

import (
	"strings"
	"testing"

	"dynprof/internal/des"
)

// TestCompactSpecKey pins the canonical key: defaults resolved, every
// discriminating field present, verbatim and compact cells distinct.
func TestCompactSpecKey(t *testing.T) {
	k := CompactSpec{App: "sweep3d"}.Key()
	want := "compact|sweep3d|procs=4|compact=false|IBM Power3 SMP cluster (Colony)|seed=0|args{iters=1 nx=64 ny=4 nz=4}"
	if k != want {
		t.Errorf("key = %q, want %q", k, want)
	}
	kc := CompactSpec{App: "sweep3d", Compact: true}.Key()
	if kc == k {
		t.Error("compact flag does not discriminate keys")
	}
	if !strings.Contains(kc, "compact=true") {
		t.Errorf("compact key %q lacks compact=true", kc)
	}
}

// TestCompactCell runs one kernel both ways and pins the suppression
// contract: identical simulation (elapsed, event count), a >= 5x smaller
// trace, and repeat records actually firing.
func TestCompactCell(t *testing.T) {
	verbatim, err := RunCompact(CompactSpec{App: "sweep3d"})
	if err != nil {
		t.Fatal(err)
	}
	compact, err := RunCompact(CompactSpec{App: "sweep3d", Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if verbatim.Elapsed != compact.Elapsed {
		t.Errorf("suppression perturbed the simulation: elapsed %v vs %v",
			verbatim.Elapsed, compact.Elapsed)
	}
	if verbatim.TraceEvents == 0 || verbatim.TraceEvents != compact.TraceEvents {
		t.Fatalf("event counts diverge: verbatim %d, compact %d",
			verbatim.TraceEvents, compact.TraceEvents)
	}
	if verbatim.Records != 0 || verbatim.Repeats != 0 {
		t.Errorf("verbatim cell reports encoder stats: %+v", verbatim)
	}
	if compact.Records == 0 || compact.Repeats == 0 {
		t.Errorf("compact cell found no redundancy: %+v", compact)
	}
	ratio := verbatim.BytesPerEvent() / compact.BytesPerEvent()
	if ratio < 5 {
		t.Errorf("suppression ratio %.2fx on sweep3d, want >= 5x (%.2f vs %.2f bytes/event)",
			ratio, verbatim.BytesPerEvent(), compact.BytesPerEvent())
	}
}

// TestCompactStoreRoundTrip: CompactResult survives the JSONL journal.
func TestCompactStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := CompactResult{App: "umt98", Compact: true, Elapsed: 7 * des.Second,
		TraceEvents: 40000, TraceBytes: 5200, Records: 900, Repeats: 310}
	if err := st.Put("compact|test", want); err != nil {
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
	got, ok := st2.Get("compact|test")
	if !ok {
		t.Fatal("record not found after reopen")
	}
	res, isCompact := got.(CompactResult)
	if !isCompact {
		t.Fatalf("round-tripped value is %T", got)
	}
	if res != want {
		t.Errorf("round-trip mismatch: got %+v want %+v", res, want)
	}
}
