package exp

import (
	"testing"

	"dynprof/internal/des"
)

// TestRecoverCell pins one recover cell's physics: every scheduled crash
// restarts, ledgers replay, reconvergence latency is positive and bounded,
// the crash windows cost a measurable but small fraction of trace events,
// and co-tenant latency does not regress by more than the recovery
// traffic can explain.
func TestRecoverCell(t *testing.T) {
	res, err := RunRecover(RecoverSpec{MTBF: 5 * des.Second, Seed: DefaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || res.Crashes != res.Restarts {
		t.Errorf("crashes=%d restarts=%d, want equal and nonzero", res.Crashes, res.Restarts)
	}
	if res.Replays == 0 || res.Recoveries == 0 {
		t.Errorf("replays=%d recoveries=%d, want both nonzero", res.Replays, res.Recoveries)
	}
	if res.ReconvergeP50 <= 0 || res.ReconvergeP95 < res.ReconvergeP50 {
		t.Errorf("reconvergence p50=%v p95=%v", res.ReconvergeP50, res.ReconvergeP95)
	}
	if res.ReconvergeP95 > 5*des.Second {
		t.Errorf("reconvergence p95=%v, want under one MTBF", res.ReconvergeP95)
	}
	if res.LostFrac <= 0 || res.LostFrac > 0.5 {
		t.Errorf("lost-event fraction %.4f, want in (0, 0.5]", res.LostFrac)
	}
	if res.CoTenantP95 < 1 || res.CoTenantP95 > 100 {
		t.Errorf("co-tenant p95 ratio %.3f, want >= 1 and sane", res.CoTenantP95)
	}
	if res.Drops == 0 || res.Retries == 0 {
		t.Errorf("drops=%d retries=%d, want both nonzero under 10%% loss", res.Drops, res.Retries)
	}
	if res.Evicted > res.Sessions/10 {
		t.Errorf("evicted=%d of %d sessions, want under 10%%", res.Evicted, res.Sessions)
	}
}

// TestRecoverStoreRoundTrip: RecoverResult survives the JSONL journal.
func TestRecoverStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := RecoverResult{Sessions: 64, Crashes: 80, Restarts: 80, Replays: 300,
		Recoveries: 280, ReconvergeP50: 40 * des.Millisecond, LostFrac: 0.02,
		CoTenantP95: 1.3, Elapsed: 31 * des.Second, Events: 12345}
	if err := st.Put("recover|test", want); err != nil {
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
	got, ok := st2.Get("recover|test")
	if !ok {
		t.Fatal("record not found after reopen")
	}
	res, isRecover := got.(RecoverResult)
	if !isRecover {
		t.Fatalf("round-tripped value is %T", got)
	}
	if res.Crashes != want.Crashes || res.ReconvergeP50 != want.ReconvergeP50 ||
		res.LostFrac != want.LostFrac || res.Events != want.Events {
		t.Errorf("round-trip mismatch: got %+v want %+v", res, want)
	}
}
