package vt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
)

// loopBatch models the redundant trace a loop nest emits: iters repetitions
// of an Enter/Exit body over a handful of functions, with a fixed
// per-iteration time step — the sequence redundancy suppression exists to
// collapse.
func loopBatch(rank, tid int32, start des.Time, iters int) []Event {
	evs := make([]Event, 0, iters*4)
	at := start
	for i := 0; i < iters; i++ {
		for _, step := range []struct {
			k  Kind
			id int32
			d  des.Time
		}{
			{Enter, 1, 5}, {Enter, 2, 10}, {Exit, 2, 90}, {Exit, 1, 15},
		} {
			at += step.d
			evs = append(evs, Event{At: at, Rank: rank, TID: tid, Kind: step.k, ID: step.id})
		}
	}
	return evs
}

func TestCompactRoundTripLoop(t *testing.T) {
	evs := loopBatch(0, 0, 0, 100)
	var enc encoder
	block, recs, reps := enc.encodeBlock(nil, evs)
	if reps == 0 {
		t.Fatal("loop body produced no repeat records")
	}
	if recs >= len(evs)/10 {
		t.Errorf("suppression left %d records for %d events", recs, len(evs))
	}
	if ratio := float64(len(evs)*EventBytes) / float64(len(block)); ratio < 5 {
		t.Errorf("compression ratio %.1fx below the 5x target", ratio)
	}
	var dec decoder
	got, drecs, dreps, err := dec.block(block, len(evs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if drecs != recs || dreps != reps {
		t.Errorf("decode counted %d/%d records, encode %d/%d", drecs, dreps, recs, reps)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("decoded events diverge from the originals")
	}
}

// TestCompactRoundTripAdversarial exercises every literal-tag feature:
// lane switches, A/B payloads, kind escapes (ConfSync is kind 10; kinds
// >= 15 need the escape), dictionary hits and misses, out-of-range and
// negative ids, and time going backwards between events.
func TestCompactRoundTripAdversarial(t *testing.T) {
	evs := []Event{
		{At: 100, Rank: 0, TID: 0, Kind: Enter, ID: 1},
		{At: 100, Rank: 0, TID: 0, Kind: Exit, ID: 1},
		{At: 90, Rank: 3, TID: 1, Kind: MsgSend, ID: 7, A: 2, B: 4096},
		{At: 95, Rank: 3, TID: 1, Kind: MsgRecv, ID: 7, A: -1, B: 1 << 40},
		{At: 95, Rank: 0, TID: 2, Kind: ConfSync, ID: 0, A: 3},
		{At: 200, Rank: 0, TID: 2, Kind: Kind(20), ID: maxDirectID + 5},
		{At: 201, Rank: 0, TID: 2, Kind: Kind(20), ID: maxDirectID + 5},
		{At: 202, Rank: 0, TID: 2, Kind: Enter, ID: -3},
		{At: 203, Rank: 0, TID: 2, Kind: Enter, ID: 1},
	}
	var enc encoder
	block, _, _ := enc.encodeBlock(nil, evs)
	var dec decoder
	got, _, _, err := dec.block(block, len(evs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("adversarial round trip diverged:\n got %v\nwant %v", got, evs)
	}
}

func TestCompactDecoderRejectsCorruption(t *testing.T) {
	evs := loopBatch(0, 0, 0, 4)
	var enc encoder
	block, _, _ := enc.encodeBlock(nil, evs)
	var dec decoder
	cases := map[string][]byte{
		"truncated":      block[:len(block)-1],
		"trailing bytes": append(append([]byte{}, block...), 0x00),
	}
	for name, bad := range cases {
		var fe *FormatError
		if _, _, _, err := dec.block(bad, len(evs), nil); !errors.As(err, &fe) {
			t.Errorf("%s block: got %v, want *FormatError", name, err)
		}
	}
	// A repeat op whose pattern reaches before the block start.
	bad := []byte{tagRepeat | 4, 2}
	var fe *FormatError
	if _, _, _, err := dec.block(bad, 8, nil); !errors.As(err, &fe) {
		t.Errorf("orphan repeat: got %v, want *FormatError", err)
	}
}

// TestCompactCollectorMatchesVerbatim drives identical interleaved batches
// into a verbatim and a compact collector and requires identical merged
// views, lengths and trace bytes out.
func TestCompactCollectorMatchesVerbatim(t *testing.T) {
	plain := NewCollector()
	defer plain.Release()
	compact := NewCompactCollector()
	defer compact.Release()
	for _, col := range []*Collector{plain, compact} {
		fillBatches(col, 20, 50)
		col.Append(loopBatch(0, 0, 1000, 50))
		col.Append(loopBatch(1, 1, 980, 50))
	}
	if plain.Len() != compact.Len() {
		t.Fatalf("Len diverges: %d vs %d", plain.Len(), compact.Len())
	}
	if !reflect.DeepEqual(plain.Events(), compact.Events()) {
		t.Fatal("merged views diverge between verbatim and compact collectors")
	}
	var pw, cw bytes.Buffer
	if err := plain.WriteTrace(&pw); err != nil {
		t.Fatal(err)
	}
	if err := compact.WriteTrace(&cw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pw.Bytes(), cw.Bytes()) {
		t.Fatal("textual traces diverge between verbatim and compact collectors")
	}
	st := compact.CompactStats()
	if st.EventsIn != compact.Len() || st.Records == 0 || st.Bytes != compact.Bytes() {
		t.Errorf("inconsistent stats: %+v (len %d, bytes %d)", st, compact.Len(), compact.Bytes())
	}
	if compact.Bytes() >= plain.Bytes() {
		t.Errorf("compact bytes %d not below verbatim %d", compact.Bytes(), plain.Bytes())
	}
}

func TestCompactSpillEquivalence(t *testing.T) {
	dir := t.TempDir()
	plain := NewCollector()
	defer plain.Release()
	spilling := NewCompactCollector()
	defer spilling.Release()
	if err := spilling.SpillTo(filepath.Join(dir, "trace.cspill"), 128); err != nil {
		t.Fatal(err)
	}
	for _, col := range []*Collector{plain, spilling} {
		fillBatches(col, 20, 50)
		col.Append(loopBatch(2, 0, 500, 80))
	}
	if spilling.Spilled() == 0 {
		t.Fatal("no events spilled despite tiny threshold")
	}
	if spilling.Len() != plain.Len() {
		t.Fatalf("Len diverges: %d vs %d", spilling.Len(), plain.Len())
	}
	if err := spilling.SpillErr(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spilling.Events(), plain.Events()) {
		t.Fatal("merged views diverge between compact-spilling and verbatim collectors")
	}
	if spilling.Bytes() >= plain.Bytes() {
		t.Errorf("compact spilling bytes %d not below verbatim %d", spilling.Bytes(), plain.Bytes())
	}
}

// TestSpillRejectsUnknownVersion corrupts the spill header's version byte
// under a live collector and requires the read path to surface a typed
// *FormatError instead of misparsing.
func TestSpillRejectsUnknownVersion(t *testing.T) {
	for _, compact := range []bool{false, true} {
		dir := t.TempDir()
		col := NewCollector()
		if compact {
			col = NewCompactCollector()
		}
		path := filepath.Join(dir, "trace.spill")
		if err := col.SpillTo(path, 64); err != nil {
			t.Fatal(err)
		}
		fillBatches(col, 10, 50)
		if col.Spilled() == 0 {
			t.Fatal("no events spilled")
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{99}, int64(len(spillMagic))); err != nil {
			t.Fatal(err)
		}
		f.Close()
		col.Events()
		var fe *FormatError
		if err := col.SpillErr(); !errors.As(err, &fe) {
			t.Errorf("compact=%v: got %v, want *FormatError", compact, err)
		} else if fe.Version != 99 {
			t.Errorf("compact=%v: reported version %d, want 99", compact, fe.Version)
		}
		col.Release()
	}
}

func TestCompactTraceFileRoundTrip(t *testing.T) {
	for _, src := range []struct {
		name string
		mk   func() *Collector
	}{
		{"verbatim", NewCollector},
		{"compact", NewCompactCollector},
	} {
		t.Run(src.name, func(t *testing.T) {
			col := src.mk()
			defer col.Release()
			fillBatches(col, 20, 50)
			col.Append(loopBatch(0, 0, 2000, 60))
			var want bytes.Buffer
			if err := col.WriteTrace(&want); err != nil {
				t.Fatal(err)
			}
			var file bytes.Buffer
			if err := col.WriteCompactTrace(&file); err != nil {
				t.Fatal(err)
			}
			if file.Len() >= want.Len() {
				t.Errorf("compact file %d bytes not below textual %d", file.Len(), want.Len())
			}
			back, err := ReadTraceAuto(bytes.NewReader(file.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			defer back.Release()
			var got bytes.Buffer
			if err := back.WriteTrace(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("trace read back from compact file diverges from the source")
			}
		})
	}
}

func TestCompactTraceFileSpilledSource(t *testing.T) {
	dir := t.TempDir()
	col := NewCompactCollector()
	defer col.Release()
	if err := col.SpillTo(filepath.Join(dir, "t.cspill"), 100); err != nil {
		t.Fatal(err)
	}
	fillBatches(col, 20, 50)
	if col.Spilled() == 0 {
		t.Fatal("no events spilled")
	}
	var want bytes.Buffer
	if err := col.WriteTrace(&want); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := col.WriteCompactTrace(&file); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCompactTrace(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Release()
	var got bytes.Buffer
	if err := back.WriteTrace(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("trace read back from a spilled compact source diverges")
	}
}

func TestCompactTraceRejectsUnknownVersion(t *testing.T) {
	col := NewCompactCollector()
	defer col.Release()
	fillBatches(col, 2, 10)
	var file bytes.Buffer
	if err := col.WriteCompactTrace(&file); err != nil {
		t.Fatal(err)
	}
	raw := file.Bytes()
	raw[4] = 99
	var fe *FormatError
	if _, err := ReadCompactTrace(bytes.NewReader(raw)); !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FormatError", err)
	} else if fe.Version != 99 {
		t.Fatalf("reported version %d, want 99", fe.Version)
	}
	if _, err := ReadTraceAuto(bytes.NewReader(raw)); !errors.As(err, &fe) {
		t.Fatalf("ReadTraceAuto: got %v, want *FormatError", err)
	}
}

func TestReadTraceAutoTextual(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	fillBatches(col, 3, 10)
	var text bytes.Buffer
	if err := col.WriteTrace(&text); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceAuto(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Release()
	if !reflect.DeepEqual(back.Events(), col.Events()) {
		t.Fatal("textual auto-read diverges")
	}
}

// driveLoop fires iters Enter/Exit pairs for two functions through the
// Ctx's probes, advancing simulated time by a fixed step.
func driveLoop(c *Ctx, ec *fakeEC, iters int) {
	f := c.FuncDef("solve")
	g := c.FuncDef("kernel")
	c.Initialize(nil)
	for i := 0; i < iters; i++ {
		for _, id := range []int32{f, g} {
			c.Begin(ec, id)
			ec.now += 10
			c.End(ec, id)
			ec.now += 5
		}
	}
}

// TestByteBudgetFlushEarly: a compact collector behind a small buffer
// (256 bytes' worth of events) under flush-early loses nothing over a long
// loop, and its merged trace equals that of an unbudgeted verbatim Ctx.
func TestByteBudgetFlushEarly(t *testing.T) {
	col := NewCompactCollector()
	defer col.Release()
	c := NewCtx(Options{Collector: col, BufferEvents: 256 / EventBytes, Overflow: fault.OverflowFlushEarly})
	ec := &fakeEC{}
	driveLoop(c, ec, 4000)
	c.Flush()
	if c.Overflows() == 0 {
		t.Fatal("no overflows despite tiny buffer")
	}
	if c.MidRunFlushes() == 0 {
		t.Fatal("flush-early produced no mid-run flushes")
	}
	if got := col.Len(); got != 16000 {
		t.Fatalf("flush-early lost events: %d of 16000", got)
	}
	// The same probes through a verbatim collector must yield the same
	// merged trace: buffer pressure changes when data moves, not what is
	// recorded.
	ref := NewCollector()
	defer ref.Release()
	rc := NewCtx(Options{Collector: ref})
	driveLoop(rc, &fakeEC{}, 4000)
	rc.Flush()
	if !reflect.DeepEqual(col.Events(), ref.Events()) {
		t.Fatal("flush-early trace diverges from unbudgeted reference")
	}
}

// TestCompactReleaseRecycles verifies the suppression state actually
// returns to the pools: a release/new cycle at steady state must not grow
// the heap per iteration.
func TestCompactReleaseRecycles(t *testing.T) {
	evs := loopBatch(0, 0, 0, 200)
	grow := testing.AllocsPerRun(50, func() {
		col := NewCompactCollector()
		col.Append(evs)
		_ = col.Events()
		col.Release()
	})
	// A handful of fixed-size allocations per cycle (Collector struct,
	// maps, blockRef headers) is fine; per-event growth is not.
	if grow > 40 {
		t.Errorf("release/new cycle allocates %.0f objects; pools not recycling", grow)
	}
}
