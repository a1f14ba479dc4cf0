package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
)

// journalBytes reads the raw journal under dir.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, StoreJournalName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// storeKinds holds one record per cell kind, in the order (and with the
// exact values) of testdata/journal_all_kinds.jsonl, a journal written by the
// Store this encoder replaced. The fixture's scale record still carries
// the retired ScaleResult.SpilledEvents field (see storeFixtureDrop).
var storeKinds = func() []struct {
	key string
	val any
} {
	stall := []fault.Event{{At: 5 * des.Millisecond, Kind: fault.KindStall, Node: 1, Rank: -1, Detail: "40ms"}}
	return []struct {
		key string
		val any
	}{
		{"run|smg98|Full|cpus=8|fixture", Result{App: "smg98", Policy: "Full", CPUs: 8, Elapsed: 3 * des.Second, TraceBytes: 4096, Faults: stall}},
		{"confsync|cpus=32|fixture", ConfSyncResult{CPUs: 32, Mean: 7 * des.Millisecond, Faults: stall}},
		{"hybrid|points=true|fixture", HybridResult{CPUs: 4, Elapsed: 2 * des.Second, CreateAndInstrument: 90 * des.Millisecond}},
		{"scale|sweep3d|ranks=1024|fixture", ScaleResult{App: "sweep3d", Ranks: 1024, Shards: 8, Elapsed: des.Second,
			Events: 123456, TraceEvents: 16384, TraceBytes: 393216}},
		{"tenants|sessions=100|fixture", TenantsResult{Sessions: 100, Completed: 98, Evicted: 2, Queued: 3, Ops: 392,
			P50: des.Millisecond, P95: 3 * des.Millisecond, P99: 5 * des.Millisecond, Elapsed: 11 * des.Second, Events: 99999, TraceBytes: 77777}},
		{"adapt|smg98|budget=0.05|fixture", AdaptResult{App: "smg98", Budget: 0.05, CPUs: 4, Elapsed: 4 * des.Second, Epochs: 24,
			Achieved: 0.051, LastOverhead: 0.049, Retained: 0.6, Floor: 0.01, ActiveProbes: 10, TotalProbes: 30,
			Deactivated: 25, Reactivated: 5, TraceBytes: 8192, Events: 5000, Faults: stall}},
		{"recover|mtbf=5000000000|fixture", RecoverResult{Sessions: 64, Crashes: 80, Restarts: 80, Replays: 300, Recoveries: 280,
			ReconvergeP50: 40 * des.Millisecond, ReconvergeP95: 90 * des.Millisecond, LostFrac: 0.02, CoTenantP95: 1.3,
			Evicted: 1, Retries: 12, Drops: 9, Elapsed: 31 * des.Second, Events: 12345,
			Faults: []fault.Event{{At: des.Second, Kind: fault.KindDaemonCrash, Node: 3, Rank: -1}}}},
		{"compact|umt98|procs=4|compact=true|fixture", CompactResult{App: "umt98", Compact: true, Elapsed: 7 * des.Second,
			TraceEvents: 40000, TraceBytes: 5200, Records: 900, Repeats: 310}},
	}
}()

// storeFixtureDrop is the one key of the fixture that today's ScaleResult
// no longer has. Put writes the fixture byte for byte without it; reloading
// the fixture ignores it, so journals that carry it still resume.
const storeFixtureDrop = `,"SpilledEvents":100`

// TestStoreRoundTrip: every cell kind survives Put/Close/reopen and the
// older journal format, Put writes that format byte for byte (less the
// retired field), values of the wrong type for their key are rejected, and
// Compact writes the same key-ordered bytes every time.
func TestStoreRoundTrip(t *testing.T) {
	if len(storeKinds) != len(resultKinds) {
		t.Fatalf("table has %d kinds, the store knows %d", len(storeKinds), len(resultKinds))
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_all_kinds.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range storeKinds {
		if err := st.Put(kv.key, kv.val); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []struct {
		key string
		val any
	}{{"run|k-bad", 42}, {"confsync|k-bad", Result{}}, {"k-bad", Result{}}} {
		if err := st.Put(bad.key, bad.val); err == nil || !strings.Contains(err.Error(), "unstorable") {
			t.Errorf("Put(%q, %T) error = %v, want unstorable", bad.key, bad.val, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fixture, []byte(storeFixtureDrop)) {
		t.Fatalf("fixture no longer carries %s", storeFixtureDrop)
	}
	want := bytes.Replace(fixture, []byte(storeFixtureDrop), nil, 1)
	if got := journalBytes(t, dir); !bytes.Equal(got, want) {
		t.Errorf("journal bytes differ from the fixture:\n%s\nwant\n%s", got, want)
	}

	fixDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(fixDir, StoreJournalName), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, fixDir} {
		st2, err := OpenStore(d)
		if err != nil {
			t.Fatal(err)
		}
		if st2.Len() != len(storeKinds) {
			t.Errorf("reloaded Len = %d, want %d", st2.Len(), len(storeKinds))
		}
		for _, kv := range storeKinds {
			got, ok := st2.Get(kv.key)
			if !ok || !reflect.DeepEqual(got, kv.val) {
				t.Errorf("Get(%q) = %+v, %t; want %+v", kv.key, got, ok, kv.val)
			}
		}
		st2.Close()
	}

	st3, err := OpenStore(fixDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	var compacted [2][]byte
	for i := range compacted {
		if err := st3.Compact(); err != nil {
			t.Fatal(err)
		}
		compacted[i] = journalBytes(t, fixDir)
	}
	if !bytes.Equal(compacted[0], compacted[1]) {
		t.Errorf("two compactions wrote different bytes:\n%s\nvs\n%s", compacted[0], compacted[1])
	}
	lines := strings.Split(strings.TrimSuffix(string(compacted[0]), "\n"), "\n")
	if len(lines) != len(storeKinds) || !sort.StringsAreSorted(lines) {
		t.Errorf("compacted journal is not one record per key in key order:\n%s", compacted[0])
	}
}

// TestStoreTornFinalRecord: a crash mid-append leaves a torn final line;
// reload keeps everything before it and ignores the residue.
func TestStoreTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := Result{App: "sppm", Policy: None.String(), CPUs: 2, Elapsed: des.Second}
	if err := st.Put("run|intact", res); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, StoreJournalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"run|torn","run":{"App":"s`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("torn final record must be tolerated, got %v", err)
	}
	if st2.Len() != 1 {
		t.Errorf("Len = %d, want the 1 intact record", st2.Len())
	}
	if _, ok := st2.Get("run|torn"); ok {
		t.Error("torn record must not be indexed")
	}
	if got, ok := st2.Get("run|intact"); !ok || !reflect.DeepEqual(got, res) {
		t.Errorf("intact record lost: %+v, %t", got, ok)
	}

	// A record appended after the resume must land on its own line and
	// survive the next reopen.
	after := Result{App: "sppm", Policy: None.String(), CPUs: 4, Elapsed: 2 * des.Second}
	if err := st2.Put("run|after", after); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen after appending past a torn record: %v", err)
	}
	defer st3.Close()
	if st3.Len() != 2 {
		t.Errorf("Len = %d, want the intact and the appended record", st3.Len())
	}
	if got, ok := st3.Get("run|after"); !ok || !reflect.DeepEqual(got, after) {
		t.Errorf("appended record lost: %+v, %t", got, ok)
	}
}

// TestStoreCorruptMiddle: corruption anywhere but the final line is not a
// crash signature and must fail loudly, naming the line.
func TestStoreCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	garbage := "not json at all\n" + `{"key":"ok","run":{"App":"sppm","Policy":"None","CPUs":2,"Elapsed":1,"CreateAndInstrument":0,"TraceBytes":0,"Faults":null}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, StoreJournalName), []byte(garbage), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenStore(dir)
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("corrupt mid-journal error = %v, want a line-1 diagnosis", err)
	}
}

// TestStoreLastRecordWins: duplicate keys resolve to the latest intact
// record, both live and across a reload; Compact drops the superseded one.
func TestStoreLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := Result{App: "smg98", Policy: Full.String(), CPUs: 2, Elapsed: des.Second}
	second := Result{App: "smg98", Policy: Full.String(), CPUs: 2, Elapsed: 2 * des.Second}
	if err := st.Put("run|k", first); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("run|k", second); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if n := bytes.Count(journalBytes(t, dir), []byte("\n")); n != 2 {
		t.Errorf("journal has %d records, want both appends", n)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := st2.Get("run|k"); !reflect.DeepEqual(got, second) {
		t.Errorf("Get after reload = %+v, want the later record", got)
	}
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journalBytes(t, dir), []byte("\n")); n != 1 {
		t.Errorf("compacted journal has %d records, want 1", n)
	}
	// The handle stays usable for appends after compaction.
	if err := st2.Put("run|k2", first); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got, _ := st3.Get("run|k"); !reflect.DeepEqual(got, second) {
		t.Errorf("post-compact Get(k) = %+v, want the later record", got)
	}
	if got, ok := st3.Get("run|k2"); !ok || !reflect.DeepEqual(got, first) {
		t.Errorf("post-compact append lost: %+v, %t", got, ok)
	}
}

// TestStoreRunnerResume: a second Runner over the same cache directory
// re-executes nothing and assembles byte-identical output — the
// kill-and-resume contract.
func TestStoreRunnerResume(t *testing.T) {
	dir := t.TempDir()
	render := func(st *Store, onCell func(CellEvent)) string {
		plan := supervisedPlan(healthyTestApp("steady"), healthyTestApp("steady2"))
		r := NewRunner(Options{Parallelism: 2, Store: st, OnCell: onCell})
		fig, err := r.runPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := fig.Render(&b); err != nil {
			t.Fatal(err)
		}
		m := r.Metrics()
		if onCell == nil {
			if m.Runs != 2 || m.StoreHits != 0 {
				t.Errorf("first pass runs=%d store-hits=%d, want 2/0", m.Runs, m.StoreHits)
			}
		} else {
			if m.Runs != 0 || m.StoreHits != 2 {
				t.Errorf("resumed pass runs=%d store-hits=%d, want 0/2", m.Runs, m.StoreHits)
			}
		}
		return b.String()
	}

	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := render(st1, nil)
	st1.Close()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var evs []CellEvent
	resumed := render(st2, func(ev CellEvent) { evs = append(evs, ev) })
	if first != resumed {
		t.Errorf("resumed output differs from original:\n--- first ---\n%s\n--- resumed ---\n%s", first, resumed)
	}
	if len(evs) != 2 {
		t.Fatalf("resumed pass emitted %d events, want 2", len(evs))
	}
	for _, ev := range evs {
		if !ev.StoreHit || ev.Failed {
			t.Errorf("resumed event %+v, want a healthy store hit", ev)
		}
	}
}

// TestStoreSkipsFailures: failed cells are never persisted — a resumed
// sweep must re-attempt them rather than trust a failure record.
func TestStoreSkipsFailures(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := NewRunner(Options{Store: st})
	if _, err := r.Run(RunSpec{AppDef: panicTestApp("explodes"), Policy: None, CPUs: 1, Seed: DefaultSeed}); err == nil {
		t.Fatal("panicking spec must return an error from Run")
	}
	if st.Len() != 0 {
		t.Errorf("store indexed %d records after a failure, want 0", st.Len())
	}
	if data := bytes.TrimSpace(journalBytes(t, dir)); len(data) != 0 {
		t.Errorf("journal not empty after a failure: %q", data)
	}
}
