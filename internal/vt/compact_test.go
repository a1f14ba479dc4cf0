package vt

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// fillBatches appends n interleaved per-thread batches to col, modelling
// mid-run flushes from several ranks: each batch is time-sorted internally
// but batches overlap in time, forcing real merge work.
func fillBatches(col *Collector, batches, perBatch int) {
	col.AddFuncTable(0, map[int32]string{1: "main", 2: "solve"})
	for b := 0; b < batches; b++ {
		evs := make([]Event, perBatch)
		for i := range evs {
			evs[i] = Event{
				At:   des.Time(b + i*3),
				Rank: int32(b % 4), TID: int32(b % 2),
				Kind: Enter, ID: 1 + int32(i%2), A: int64(b), B: int64(i),
			}
		}
		col.Append(evs)
	}
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
	// One literal, then a repeat claiming 1<<63 copies of it in a block of
	// 3 events: copies*patternLen wraps in signed arithmetic.
	huge := append([]byte{tagNewID, 0, 0, tagRepeat | 1}, binary.AppendUvarint(nil, 1<<63)...)
	if len(huge) != 14 {
		t.Fatalf("huge-repeat block is %d bytes, want 14", len(huge))
	}
	if _, _, _, err := dec.block(huge, 3, nil); !errors.As(err, &fe) {
		t.Errorf("huge repeat: got %v, want *FormatError", err)
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

// TestSpillAppendAfterReadKeepsOrder: a batch appended after Events has
// cached the merged view still interleaves with the earlier events, for
// both collector flavours.
func TestSpillAppendAfterReadKeepsOrder(t *testing.T) {
	forEachFlavour(t, func(t *testing.T, newCol func() *Collector) {
		col := newCol()
		defer col.Release()
		col.Append([]Event{{At: 10}, {At: 20}, {At: 30}, {At: 40}})
		if got := col.Events(); len(got) != 4 {
			t.Fatalf("mid-run view: %d events", len(got))
		}
		col.Append([]Event{{At: 5}, {At: 35}})
		got := col.Events()
		want := []des.Time{5, 10, 20, 30, 35, 40}
		if len(got) != len(want) {
			t.Fatalf("got %d events, want %d", len(got), len(want))
		}
		for i, e := range got {
			if e.At != want[i] {
				t.Errorf("event %d at %v, want %v", i, e.At, want[i])
			}
		}
	})
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

// TestCompactTraceBoundsFrameAllocation: a file that claims a huge frame
// but ends after the header fails as a truncated frame instead of
// allocating the claimed length up front; a huge function count does not
// size a map, and a frame count past the int range is rejected.
func TestCompactTraceBoundsFrameAllocation(t *testing.T) {
	for name, claim := range map[string][]byte{
		"1<<62":    binary.AppendUvarint(nil, 1<<62),
		"1<<31":    binary.AppendUvarint(nil, 1<<31),
		"1MiB + 1": binary.AppendUvarint(nil, maxFrameChunk+1),
	} {
		raw := append([]byte(traceMagic), CompactVersion)
		raw = append(raw, 0, 1, 1) // no ranks, one event, frame count 1
		raw = append(raw, claim...)
		raw = append(raw, 0x40, 0, 0) // three of the claimed bytes
		var fe *FormatError
		if _, err := ReadCompactTrace(bytes.NewReader(raw)); !errors.As(err, &fe) || fe.Detail != "truncated frame" {
			t.Errorf("blockLen %s: got %v, want *FormatError truncated frame", name, err)
		}
	}
	raw := append([]byte(traceMagic), CompactVersion)
	raw = append(raw, 1, 0) // one rank, id 0
	raw = binary.AppendUvarint(raw, 1<<40)
	var fe *FormatError
	if _, err := ReadCompactTrace(bytes.NewReader(raw)); !errors.As(err, &fe) {
		t.Errorf("huge function count: got %v, want *FormatError", err)
	}
	// A frame count of 1<<63 is negative as an int: the empty block it
	// heads must not decode as a frame of no events.
	raw = append([]byte(traceMagic), CompactVersion, 0)
	raw = binary.AppendUvarint(raw, 1<<64-1)
	raw = binary.AppendUvarint(raw, 1<<63)
	raw = append(raw, 0)
	if _, err := ReadCompactTrace(bytes.NewReader(raw)); !errors.As(err, &fe) {
		t.Errorf("frame count 1<<63: got %v, want *FormatError", err)
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
