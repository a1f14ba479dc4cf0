package vt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

	"dynprof/internal/des"
)

// This file implements the collector's online redundancy-suppression layer
// and the compact binary trace encoding (format version 2). HPC kernel
// traces are dominated by repeated calling-context/loop sequences (Arafa et
// al., "Redundancy Suppression In Time-Aware Dynamic Binary
// Instrumentation"): a loop body that enters and exits the same functions
// with the same per-iteration time deltas compresses to one parameterized
// repeat record instead of N verbatim events, with exact reconstruction on
// decode.
//
// A compact collector (NewCompactCollector) stores encoded blocks instead
// of verbatim events. One block encodes one Append batch:
//
//	block   := op*                      (the event count travels out of band:
//	                                     blockRef in memory, frame on disk)
//	op      := literal | repeat
//	literal := tag [kind] id dAt [dRank dTid] [A B]
//	repeat  := 0x80|patternLen  uvarint(copies)
//
// The literal tag byte has bit 7 clear; bits 0-3 hold the kind (15 = escape,
// a uvarint kind follows), bit 4 marks a non-zero A/B payload (two zigzag
// varints), bit 5 a lane change (zigzag varint rank and tid deltas), and
// bit 6 a first-seen function id (a zigzag varint raw id follows and is
// appended to the block's id dictionary; otherwise a uvarint dictionary
// index). dAt is the zigzag varint time delta against the previous event in
// the block (the first event's delta is its absolute time).
//
// A repeat op says: the previous patternLen decoded events — tuples AND
// time deltas — occur `copies` more times. The encoder only emits it when
// the match is exact elementwise, so decoding reproduces the verbatim
// stream bit for bit: count, period (the sum of the pattern's deltas) and
// per-iteration deltas are all implied by the pattern.

// Compact-format constants.
const (
	// CompactVersion is the format-version byte of compact blocks, spill
	// files and binary trace files written by this package.
	CompactVersion = 2

	// maxPattern bounds the repeat detector's pattern length (loop bodies;
	// must stay below 128 so the length fits the repeat tag byte).
	maxPattern = 64

	// maxDirectID bounds the ids tracked by the encoder's direct-index
	// dictionary map; larger (or negative) ids are legal but re-encoded
	// raw on every occurrence.
	maxDirectID = 1 << 16

	// encodeChunkEvents sizes the blocks WriteCompact carves a verbatim
	// collector's arena into.
	encodeChunkEvents = 4096
)

// Literal tag bits.
const (
	tagKindMask byte = 0x0f
	tagKindEsc  byte = 0x0f
	tagAB       byte = 1 << 4
	tagLane     byte = 1 << 5
	tagNewID    byte = 1 << 6
	tagRepeat   byte = 1 << 7
)

// FormatError reports an encoded artifact — spill file, binary trace file
// or compact block — whose magic, version or structure cannot be
// interpreted. Readers return it instead of silently misparsing records
// written by a different format revision.
type FormatError struct {
	// What names the artifact: "spill file", "compact trace", "compact block".
	What string
	// Version is the unrecognised format version, or -1 for a structural
	// (corruption) failure.
	Version int
	// Detail describes a structural failure.
	Detail string
}

func (e *FormatError) Error() string {
	if e.Version >= 0 {
		return fmt.Sprintf("vt: %s: unsupported format version %d (want %d)", e.What, e.Version, CompactVersion)
	}
	return fmt.Sprintf("vt: %s: %s", e.What, e.Detail)
}

// CompactStats summarises a compact collector's suppression: how many
// events went in, how many encoded records (literal plus repeat ops) came
// out, and the encoded byte volume against the verbatim baseline.
type CompactStats struct {
	// EventsIn is the number of events appended to the collector.
	EventsIn int
	// Records is the number of encoded ops holding them.
	Records int
	// Repeats is the number of parameterized repeat records among Records.
	Repeats int
	// Bytes is the encoded payload volume, resident and spilled.
	Bytes int
}

// VerbatimBytes is the volume the same events occupy at the fixed
// per-event record size.
func (st CompactStats) VerbatimBytes() int { return st.EventsIn * EventBytes }

// Saved is the byte volume suppression removed.
func (st CompactStats) Saved() int { return st.VerbatimBytes() - st.Bytes }

// Ratio is the compression factor (verbatim/compact; 0 when empty).
func (st CompactStats) Ratio() float64 {
	if st.Bytes == 0 {
		return 0
	}
	return float64(st.VerbatimBytes()) / float64(st.Bytes)
}

// blockRef locates one encoded block in the collector's byte arena.
type blockRef struct {
	off, end int // carena[off:end]
	count    int // events encoded in the block
}

// Pools recycling compact-mode state across simulation cells, alongside
// eventBufPool: Release returns the byte arena, the encoder (dictionary
// map included) and the decoder scratch so sweeps stay zero-growth.
var (
	byteArenaPool = sync.Pool{New: func() any { return new([]byte) }}
	encoderPool   = sync.Pool{New: func() any { return new(encoder) }}
	decoderPool   = sync.Pool{New: func() any { return new(decoder) }}
)

// NewCompactCollector returns a collector with online redundancy
// suppression enabled: Append encodes every batch into the compact block
// format, Bytes reports the encoded volume, and SpillTo writes version-2
// frames. The merged Events view, WriteTrace and the analysis paths are
// byte-identical to a verbatim collector fed the same batches; only the
// storage representation differs. Suppression is opt-in per collector —
// NewCollector keeps the verbatim arena.
func NewCompactCollector() *Collector {
	col := NewCollector()
	col.compact = true
	col.carena = (*byteArenaPool.Get().(*[]byte))[:0]
	col.enc = encoderPool.Get().(*encoder)
	col.enc.reset()
	return col
}

// CompactStats returns the collector's suppression counters (zero for a
// verbatim collector).
func (col *Collector) CompactStats() CompactStats { return col.stats }

// appendCompact is Append for a compact collector: carve the batch into
// non-decreasing-time segments exactly as the verbatim path does (segment
// indices are event positions, so the merge semantics are unchanged), then
// store the encoded block. A pre-encoded frame (adopted from a trace file)
// is copied verbatim instead of re-encoded; recs/reps then carry the
// frame's op counts.
func (col *Collector) appendCompact(events []Event, frame []byte, recs, reps int) {
	base := col.count
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) && events[j].At >= events[j-1].At {
			j++
		}
		if n := len(col.segs); n > 0 && i == 0 && base > 0 && events[0].At >= col.lastAt {
			col.segs[n-1].end = base + j
		} else {
			col.segs = append(col.segs, segRange{start: base + i, end: base + j})
		}
		i = j
	}
	off := len(col.carena)
	if frame != nil {
		col.carena = append(col.carena, frame...)
	} else {
		col.carena, recs, reps = col.enc.encodeBlock(col.carena, events)
	}
	col.blocks = append(col.blocks, blockRef{off: off, end: len(col.carena), count: len(events)})
	col.count += len(events)
	col.lastAt = events[len(events)-1].At
	col.stats.EventsIn += len(events)
	col.stats.Records += recs
	col.stats.Repeats += reps
	col.stats.Bytes += len(col.carena) - off
	if col.spill != nil {
		col.spill.maybeSpill(col)
	}
}

// decodedCombined reconstructs the full insertion-ordered event stream of
// a compact collector — spilled prefix plus resident blocks — into the
// pooled decode scratch, together with the matching segment list, for
// merge-on-read. On a spill read failure the sticky error is set and only
// the resident events are returned, like the verbatim path.
func (col *Collector) decodedCombined() ([]Event, []segRange) {
	spilled := 0
	if col.spill != nil {
		spilled = col.spill.count
	}
	if col.decoded == nil {
		col.decoded = (*eventBufPool.Get().(*[]Event))[:0]
	}
	buf := col.decoded[:0]
	if spilled > 0 {
		var err error
		buf, err = col.spill.decodeAll(buf)
		if err != nil {
			col.spill.err = err
			buf, spilled = buf[:0], 0
		}
	}
	dec := decoderPool.Get().(*decoder)
	for _, b := range col.blocks {
		var err error
		buf, _, _, err = dec.block(col.carena[b.off:b.end], b.count, buf)
		if err != nil {
			// Resident blocks were encoded by this collector: failing to
			// decode one is memory corruption or an encoder bug, not an
			// input error.
			panic(err)
		}
	}
	decoderPool.Put(dec)
	col.decoded = buf
	segs := make([]segRange, 0, len(col.segs)+8)
	if spilled > 0 {
		for _, seg := range col.spill.segs {
			segs = append(segs, segRange{start: seg.start, end: seg.end})
		}
	}
	for _, seg := range col.segs {
		segs = append(segs, segRange{start: spilled + seg.start, end: spilled + seg.end})
	}
	return buf, segs
}

// encoder turns event batches into compact blocks. The id dictionary is a
// direct-index map (ids are small dense ints) reset in O(ids assigned) per
// block; encoders are pooled across collectors via Release.
type encoder struct {
	idIdx    []int32 // id -> dictionary index + 1; 0 = unassigned
	assigned []int32 // ids assigned in the current block, for cheap reset
	dictN    int
}

// reset clears the per-block dictionary.
func (e *encoder) reset() {
	for _, id := range e.assigned {
		e.idIdx[id] = 0
	}
	e.assigned = e.assigned[:0]
	e.dictN = 0
}

// deltaAt is event i's time delta against its predecessor in the batch
// (the first event is relative to the block base, time zero).
func deltaAt(evs []Event, i int) des.Time {
	if i == 0 {
		return evs[0].At
	}
	return evs[i].At - evs[i-1].At
}

// evEq reports whether positions a and b carry the same tuple AND the same
// time delta — the exactness requirement that makes repeat records
// lossless.
func evEq(evs []Event, a, b int) bool {
	x, y := &evs[a], &evs[b]
	return x.Kind == y.Kind && x.ID == y.ID && x.Rank == y.Rank && x.TID == y.TID &&
		x.A == y.A && x.B == y.B && deltaAt(evs, a) == deltaAt(evs, b)
}

// matchRun is the length of the elementwise match of evs[i:] against
// evs[i-l:] — how far the stream keeps repeating with period l.
func matchRun(evs []Event, i, l int) int {
	k := 0
	for i+k < len(evs) && evEq(evs, i+k, i+k-l) {
		k++
	}
	return k
}

// encodeBlock appends one block encoding evs to dst, returning the grown
// buffer and the op counts (records total, repeat records among them).
func (e *encoder) encodeBlock(dst []byte, evs []Event) (out []byte, recs, reps int) {
	e.reset()
	var prevAt des.Time
	var prevRank, prevTid int32
	for i := 0; i < len(evs); {
		// Repeat detection: the smallest period with at least one full
		// extra copy wins (a period-P loop is caught at l == P; larger l
		// only splinters it).
		maxL := i
		if maxL > maxPattern {
			maxL = maxPattern
		}
		bestL, run := 0, 0
		for l := 1; l <= maxL; l++ {
			if !evEq(evs, i, i-l) {
				continue
			}
			if r := matchRun(evs, i, l); r >= l {
				bestL, run = l, r
				break
			}
		}
		if bestL > 0 {
			copies := run / bestL
			dst = append(dst, tagRepeat|byte(bestL))
			dst = binary.AppendUvarint(dst, uint64(copies))
			last := i + copies*bestL - 1
			prevAt = evs[last].At
			prevRank, prevTid = evs[last].Rank, evs[last].TID
			i += copies * bestL
			recs++
			reps++
			continue
		}

		ev := &evs[i]
		tag := byte(0)
		kindEsc := false
		if byte(ev.Kind) < tagKindEsc {
			tag |= byte(ev.Kind)
		} else {
			tag |= tagKindEsc
			kindEsc = true
		}
		hasAB := ev.A != 0 || ev.B != 0
		if hasAB {
			tag |= tagAB
		}
		lane := ev.Rank != prevRank || ev.TID != prevTid
		if lane {
			tag |= tagLane
		}
		newID := true
		var dictIdx uint64
		direct := ev.ID >= 0 && ev.ID < maxDirectID
		if direct {
			if int(ev.ID) >= len(e.idIdx) {
				grown := make([]int32, ev.ID+1)
				copy(grown, e.idIdx)
				e.idIdx = grown
			}
			if v := e.idIdx[ev.ID]; v != 0 {
				newID = false
				dictIdx = uint64(v - 1)
			}
		}
		if newID {
			tag |= tagNewID
		}
		dst = append(dst, tag)
		if kindEsc {
			dst = binary.AppendUvarint(dst, uint64(ev.Kind))
		}
		if newID {
			dst = binary.AppendVarint(dst, int64(ev.ID))
			if direct {
				e.idIdx[ev.ID] = int32(e.dictN) + 1
				e.assigned = append(e.assigned, ev.ID)
			}
			// Out-of-range ids still occupy a dictionary slot: the decoder
			// appends unconditionally, and indices must agree.
			e.dictN++
		} else {
			dst = binary.AppendUvarint(dst, dictIdx)
		}
		dst = binary.AppendVarint(dst, int64(ev.At-prevAt))
		if lane {
			dst = binary.AppendVarint(dst, int64(ev.Rank-prevRank))
			dst = binary.AppendVarint(dst, int64(ev.TID-prevTid))
			prevRank, prevTid = ev.Rank, ev.TID
		}
		if hasAB {
			dst = binary.AppendVarint(dst, ev.A)
			dst = binary.AppendVarint(dst, ev.B)
		}
		prevAt = ev.At
		recs++
		i++
	}
	return dst, recs, reps
}

// decoder reconstructs blocks; the dictionary scratch is pooled.
type decoder struct {
	dict []int32
}

// block decodes one compact block of `count` events from src, appending the
// reconstructed events to dst. The decoded suffix of dst doubles as the
// pattern history for repeat ops.
func (d *decoder) block(src []byte, count int, dst []Event) (out []Event, recs, reps int, err error) {
	corrupt := func(detail string) ([]Event, int, int, error) {
		return dst, recs, reps, &FormatError{What: "compact block", Version: -1, Detail: detail}
	}
	d.dict = d.dict[:0]
	blockStart := len(dst)
	var prevAt des.Time
	var prevRank, prevTid int32
	p := 0
	readU := func() (uint64, bool) {
		v, n := binary.Uvarint(src[p:])
		if n <= 0 {
			return 0, false
		}
		p += n
		return v, true
	}
	readS := func() (int64, bool) {
		v, n := binary.Varint(src[p:])
		if n <= 0 {
			return 0, false
		}
		p += n
		return v, true
	}
	for n := 0; n < count; {
		if p >= len(src) {
			return corrupt("truncated block")
		}
		tag := src[p]
		p++
		if tag&tagRepeat != 0 {
			l := int(tag &^ tagRepeat)
			copies, ok := readU()
			if !ok {
				return corrupt("truncated repeat record")
			}
			if l == 0 || copies == 0 || len(dst)-blockStart < l || n+int(copies)*l > count {
				return corrupt("repeat record out of range")
			}
			for c := uint64(0); c < copies; c++ {
				start := len(dst) - l
				for j := 0; j < l; j++ {
					ev := dst[start+j]
					var delta des.Time
					if start+j == blockStart {
						delta = ev.At
					} else {
						delta = ev.At - dst[start+j-1].At
					}
					ev.At = prevAt + delta
					prevAt = ev.At
					dst = append(dst, ev)
				}
			}
			last := &dst[len(dst)-1]
			prevRank, prevTid = last.Rank, last.TID
			n += int(copies) * l
			recs++
			reps++
			continue
		}
		var ev Event
		ev.Kind = Kind(tag & tagKindMask)
		if byte(ev.Kind) == tagKindEsc {
			raw, ok := readU()
			if !ok {
				return corrupt("truncated kind escape")
			}
			ev.Kind = Kind(raw)
		}
		if tag&tagNewID != 0 {
			raw, ok := readS()
			if !ok {
				return corrupt("truncated raw id")
			}
			ev.ID = int32(raw)
			d.dict = append(d.dict, ev.ID)
		} else {
			idx, ok := readU()
			if !ok {
				return corrupt("truncated dictionary index")
			}
			if idx >= uint64(len(d.dict)) {
				return corrupt("dictionary index out of range")
			}
			ev.ID = d.dict[idx]
		}
		dAt, ok := readS()
		if !ok {
			return corrupt("truncated time delta")
		}
		prevAt += des.Time(dAt)
		ev.At = prevAt
		if tag&tagLane != 0 {
			dRank, ok1 := readS()
			dTid, ok2 := readS()
			if !ok1 || !ok2 {
				return corrupt("truncated lane delta")
			}
			prevRank += int32(dRank)
			prevTid += int32(dTid)
		}
		ev.Rank, ev.TID = prevRank, prevTid
		if tag&tagAB != 0 {
			a, ok1 := readS()
			b, ok2 := readS()
			if !ok1 || !ok2 {
				return corrupt("truncated A/B payload")
			}
			ev.A, ev.B = a, b
		}
		dst = append(dst, ev)
		recs++
		n++
	}
	if p != len(src) {
		return corrupt("trailing bytes after final record")
	}
	return dst, recs, reps, nil
}

// Binary trace-file format (version 2): the compact counterpart of the
// textual "# vgvtrace 1" format, readable by ReadCompactTrace and sniffed
// by ReadTraceAuto.
//
//	"VGVC" version(1)
//	uvarint nRanks { svarint rank, uvarint nFuncs { svarint id, uvarint len, name } }
//	uvarint totalEvents
//	frame* where frame := uvarint count, uvarint blockLen, block
const traceMagic = "VGVC"

// WriteCompactTrace writes the trace in the compact binary format. A
// compact collector's blocks (resident and spilled) are copied without
// re-encoding; a verbatim collector's arena is encoded in insertion-order
// chunks. Reading the file back reconstructs a collector whose merged
// Events view — and therefore every VGV rendering — is byte-identical to
// the source's.
func (col *Collector) WriteCompactTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(traceMagic)
	bw.WriteByte(CompactVersion)
	var scratch [binary.MaxVarintLen64]byte
	writeU := func(v uint64) { bw.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	writeS := func(v int64) { bw.Write(scratch[:binary.PutVarint(scratch[:], v)]) }

	ranks := col.Ranks()
	writeU(uint64(len(ranks)))
	for _, rank := range ranks {
		t := col.funcs[rank]
		ids := make([]int32, 0, len(t))
		for id := range t {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		writeS(int64(rank))
		writeU(uint64(len(ids)))
		for _, id := range ids {
			writeS(int64(id))
			writeU(uint64(len(t[id])))
			bw.WriteString(t[id])
		}
	}

	writeU(uint64(col.Len()))
	if col.compact {
		// The spill file already holds framed blocks: stream its payload.
		if col.spill != nil && col.spill.count > 0 {
			if err := col.spill.copyFrames(bw); err != nil {
				return err
			}
		}
		for _, b := range col.blocks {
			writeU(uint64(b.count))
			writeU(uint64(b.end - b.off))
			bw.Write(col.carena[b.off:b.end])
		}
		return bw.Flush()
	}
	// Verbatim source: encode the insertion-ordered stream in chunks.
	store := col.store
	if col.spill != nil && col.spill.count > 0 {
		store, _ = col.spill.combined(col)
		if err := col.spill.err; err != nil {
			return err
		}
	}
	enc := encoderPool.Get().(*encoder)
	defer encoderPool.Put(enc)
	var frame []byte
	for off := 0; off < len(store); off += encodeChunkEvents {
		end := off + encodeChunkEvents
		if end > len(store) {
			end = len(store)
		}
		frame = frame[:0]
		frame, _, _ = enc.encodeBlock(frame, store[off:end])
		writeU(uint64(end - off))
		writeU(uint64(len(frame)))
		bw.Write(frame)
	}
	return bw.Flush()
}

// ReadCompactTrace parses a trace produced by WriteCompactTrace into a
// compact collector, adopting the file's blocks without re-encoding. An
// unrecognised magic or version is rejected with *FormatError.
func ReadCompactTrace(r io.Reader) (*Collector, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, &FormatError{What: "compact trace", Version: -1, Detail: "truncated header"}
	}
	if string(hdr[:4]) != traceMagic {
		return nil, &FormatError{What: "compact trace", Version: -1, Detail: "bad magic"}
	}
	if hdr[4] != CompactVersion {
		return nil, &FormatError{What: "compact trace", Version: int(hdr[4])}
	}
	corrupt := func(detail string) (*Collector, error) {
		return nil, &FormatError{What: "compact trace", Version: -1, Detail: detail}
	}

	col := NewCompactCollector()
	nRanks, err := binary.ReadUvarint(br)
	if err != nil {
		return corrupt("truncated rank count")
	}
	for r := uint64(0); r < nRanks; r++ {
		rank, err := binary.ReadVarint(br)
		if err != nil {
			return corrupt("truncated rank id")
		}
		nFuncs, err := binary.ReadUvarint(br)
		if err != nil {
			return corrupt("truncated function count")
		}
		table := make(map[int32]string, nFuncs)
		for f := uint64(0); f < nFuncs; f++ {
			id, err := binary.ReadVarint(br)
			if err != nil {
				return corrupt("truncated function id")
			}
			nameLen, err := binary.ReadUvarint(br)
			if err != nil || nameLen > 1<<20 {
				return corrupt("bad function name length")
			}
			name := make([]byte, nameLen)
			if _, err := io.ReadFull(br, name); err != nil {
				return corrupt("truncated function name")
			}
			table[int32(id)] = string(name)
		}
		col.AddFuncTable(int32(rank), table)
	}

	total, err := binary.ReadUvarint(br)
	if err != nil {
		return corrupt("truncated event count")
	}
	dec := decoderPool.Get().(*decoder)
	defer decoderPool.Put(dec)
	var frame []byte
	var scratch []Event
	for decoded := uint64(0); decoded < total; {
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return corrupt("truncated frame header")
		}
		blen, err := binary.ReadUvarint(br)
		if err != nil || count == 0 || decoded+count > total {
			return corrupt("bad frame header")
		}
		if uint64(cap(frame)) < blen {
			frame = make([]byte, blen)
		}
		frame = frame[:blen]
		if _, err := io.ReadFull(br, frame); err != nil {
			return corrupt("truncated frame")
		}
		scratch = scratch[:0]
		var recs, reps int
		scratch, recs, reps, err = dec.block(frame, int(count), scratch)
		if err != nil {
			return nil, err
		}
		col.appendCompact(scratch, frame, recs, reps)
		decoded += count
	}
	return col, nil
}

// ReadTraceAuto reads a trace in either supported format, sniffing the
// compact binary magic and falling back to the textual parser.
func ReadTraceAuto(r io.Reader) (*Collector, error) {
	br := bufio.NewReader(r)
	if peek, err := br.Peek(len(traceMagic)); err == nil && string(peek) == traceMagic {
		return ReadCompactTrace(br)
	}
	return ReadTrace(br)
}
