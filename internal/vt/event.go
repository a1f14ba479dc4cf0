// Package vt implements a Vampirtrace-like instrumentation library: a
// per-process function registry (VT_funcdef), per-thread timestamped event
// buffers written by VT_begin/VT_end probes, a configuration table that
// activates or deactivates symbols (read from a VT config file and updated
// at runtime through VT_confsync), MPI and OpenMP event logging adapters,
// and a trace-file writer/reader for postmortem analysis.
package vt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dynprof/internal/des"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds.
const (
	// Enter and Exit are subroutine entry/exit events (VT_begin/VT_end).
	Enter Kind = iota
	Exit
	// MsgSend and MsgRecv are MPI point-to-point events; A is the peer
	// rank, B the byte count.
	MsgSend
	MsgRecv
	// APIEnter and APIExit bracket MPI library calls seen through the
	// wrapper interface.
	APIEnter
	APIExit
	// RegionFork, RegionEnter, RegionExit and RegionJoin are OpenMP
	// parallel-region events from the Guidetrace hooks; A is the member
	// id for enter/exit.
	RegionFork
	RegionEnter
	RegionExit
	RegionJoin
	// ConfSync marks a VT_confsync call; A is the configuration
	// generation after the sync.
	ConfSync
)

var kindNames = [...]string{
	Enter: "enter", Exit: "exit",
	MsgSend: "send", MsgRecv: "recv",
	APIEnter: "apienter", APIExit: "apiexit",
	RegionFork: "fork", RegionEnter: "renter", RegionExit: "rexit", RegionJoin: "join",
	ConfSync: "confsync",
}

// String returns the kind's trace mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// kindFromString inverts String; ok is false for unknown mnemonics.
func kindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// EventBytes is the on-disk size of one event record, used for the
// trace-volume accounting that motivates the paper (data gathering "at the
// rate of 2 megabytes per second").
const EventBytes = 24

// Event is one timestamped trace record.
type Event struct {
	At   des.Time
	Rank int32
	TID  int32
	Kind Kind
	ID   int32 // function or region id in the owning rank's table
	A    int64 // kind-specific: peer rank, member id, generation
	B    int64 // kind-specific: byte count
}

// segRange is one contiguous run of the collector's store with
// non-decreasing timestamps. Segments tile the store exactly: every stored
// event belongs to one segment, in insertion order.
type segRange struct{ start, end int }

// Collector accumulates the trace of a whole run: per-rank function tables
// and the merged event stream. All data collected at run time "is passed
// through Vampirtrace and written to a trace file" at termination.
//
// Events are stored in one append-only arena in arrival order, partitioned
// into time-sorted segments (per-thread flush batches arrive already
// non-decreasing, so a whole batch is usually one segment). The merged,
// time-ordered view is produced by a k-way merge over the segments and
// cached until the next Append, so Events/Bytes/dump paths stop re-copying
// and re-sorting the world on every call.
type Collector struct {
	funcs map[int32]map[int32]string // rank -> id -> name
	store []Event                    // arena, insertion order; recycled via Release
	segs  []segRange

	merged  []Event // cached merged view; valid while mergedN == Len()
	mergedN int

	// Compact mode (see compact.go): events are stored as encoded blocks
	// in carena instead of verbatim in store; segs then hold event
	// positions rather than store indices.
	compact bool
	carena  []byte
	blocks  []blockRef
	count   int      // events resident in compact mode
	lastAt  des.Time // last appended event's time, for the tail-extend check
	enc     *encoder
	decoded []Event // pooled decode scratch backing the merged view
	stats   CompactStats
}

// eventBufPool recycles collector arenas across simulation cells: a
// Runner sweep builds and discards one Collector per cell, and reusing the
// grown backing arrays removes that churn from the hot loop.
var eventBufPool = sync.Pool{New: func() any { return new([]Event) }}

// NewCollector returns an empty trace collector backed by a pooled arena.
func NewCollector() *Collector {
	buf := eventBufPool.Get().(*[]Event)
	return &Collector{
		funcs:   make(map[int32]map[int32]string),
		store:   (*buf)[:0],
		mergedN: -1,
	}
}

// Release returns the collector's arena — and, in compact mode, the byte
// arena, the encoder with its suppression dictionary, and the decode
// scratch — to the shared pools. The caller declares that neither the
// collector nor any slice obtained from Events will be used again.
func (col *Collector) Release() {
	if col.store != nil {
		buf := col.store[:0]
		eventBufPool.Put(&buf)
	}
	col.store, col.segs, col.merged = nil, nil, nil
	col.mergedN = -1
	if col.carena != nil {
		b := col.carena[:0]
		byteArenaPool.Put(&b)
		col.carena = nil
	}
	if col.enc != nil {
		encoderPool.Put(col.enc)
		col.enc = nil
	}
	if col.decoded != nil {
		d := col.decoded[:0]
		eventBufPool.Put(&d)
		col.decoded = nil
	}
	col.blocks = nil
	col.count, col.lastAt = 0, 0
	col.compact = false
	col.stats = CompactStats{}
}

// AddFuncTable registers rank's id-to-name function table.
func (col *Collector) AddFuncTable(rank int32, names map[int32]string) {
	t, ok := col.funcs[rank]
	if !ok {
		t = make(map[int32]string, len(names))
		col.funcs[rank] = t
	}
	for id, n := range names {
		t[id] = n
	}
}

// Append merges a rank's event buffer into the trace. The batch is copied
// into the arena and carved into non-decreasing-time segments; a batch that
// continues the previous segment's timeline extends it in place.
func (col *Collector) Append(events []Event) {
	if len(events) == 0 {
		return
	}
	if col.compact {
		col.appendCompact(events, nil, 0, 0)
		return
	}
	start := len(col.store)
	col.store = append(col.store, events...)
	for i := start; i < len(col.store); {
		j := i + 1
		for j < len(col.store) && col.store[j].At >= col.store[j-1].At {
			j++
		}
		if n := len(col.segs); n > 0 && i > 0 && col.store[i].At >= col.store[i-1].At {
			col.segs[n-1].end = j
		} else {
			col.segs = append(col.segs, segRange{start: i, end: j})
		}
		i = j
	}
}

// Events returns the merged events sorted by timestamp (stable: ties keep
// rank/tid/insertion order). The view is cached between Appends; callers
// must treat it as read-only.
func (col *Collector) Events() []Event {
	if col.mergedN != col.Len() {
		col.rebuildMerged()
	}
	return col.merged
}

// rebuildMerged recomputes the cached time-ordered view. Each segment is
// already sorted by (At, insertion index) — times non-decreasing, indices
// strictly increasing — so a k-way merge keyed on (At, cursor index)
// reproduces exactly the stable sort of the insertion-ordered stream. A
// compact collector first decodes that stream into the pooled scratch
// (see combined); its segment boundaries are positions where time
// decreases, so the decoded stream merges exactly like the verbatim arena.
func (col *Collector) rebuildMerged() {
	col.mergedN = col.Len()
	store, segs := col.combined()
	switch len(segs) {
	case 0:
		col.merged = nil
		return
	case 1:
		// Single timeline: the arena itself is the merged view. The full
		// slice expression stops callers from appending into the arena.
		s := segs[0]
		col.merged = store[s.start:s.end:s.end]
		return
	}
	col.merged = mergeSegs(store, segs)
}

// mergeSegs k-way merges time-sorted segments of store, keyed on
// (At, cursor index), producing the stable time order of the insertion-
// ordered stream.
func mergeSegs(store []Event, segs []segRange) []Event {
	cur := make([]int, len(segs))
	heap := make([]int, 0, len(segs))
	less := func(a, b int) bool {
		ea, eb := &store[cur[a]], &store[cur[b]]
		if ea.At != eb.At {
			return ea.At < eb.At
		}
		return cur[a] < cur[b]
	}
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	total := 0
	for si, s := range segs {
		cur[si] = s.start
		heap = append(heap, si)
		total += s.end - s.start
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]Event, 0, total)
	for len(heap) > 0 {
		si := heap[0]
		out = append(out, store[cur[si]])
		cur[si]++
		if cur[si] == segs[si].end {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
	return out
}

// Len reports the number of collected events.
func (col *Collector) Len() int {
	if col.compact {
		return col.count
	}
	return len(col.store)
}

// Bytes reports the trace's size: the fixed per-event record size for a
// verbatim collector, the encoded payload volume for a compact one.
func (col *Collector) Bytes() int {
	if col.compact {
		return col.stats.Bytes
	}
	return col.Len() * EventBytes
}

// FuncName resolves a function id in rank's table.
func (col *Collector) FuncName(rank, id int32) string {
	if n, ok := col.funcs[rank][id]; ok {
		return n
	}
	return fmt.Sprintf("func#%d", id)
}

// Ranks returns the ranks with registered function tables, sorted.
func (col *Collector) Ranks() []int32 {
	rs := make([]int32, 0, len(col.funcs))
	for r := range col.funcs {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return rs
}

// WriteTrace writes the trace in the textual VGV-trace format:
//
//	# vgvtrace 1
//	FUNC <rank> <id> <name>
//	EVT <ns> <rank> <tid> <kind> <id> <a> <b>
func (col *Collector) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# vgvtrace 1"); err != nil {
		return err
	}
	for _, rank := range col.Ranks() {
		t := col.funcs[rank]
		ids := make([]int32, 0, len(t))
		for id := range t {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if _, err := fmt.Fprintf(bw, "FUNC %d %d %s\n", rank, id, t[id]); err != nil {
				return err
			}
		}
	}
	for _, e := range col.Events() {
		if _, err := fmt.Fprintf(bw, "EVT %d %d %d %s %d %d %d\n",
			int64(e.At), e.Rank, e.TID, e.Kind, e.ID, e.A, e.B); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace produced by WriteTrace.
func ReadTrace(r io.Reader) (*Collector, error) {
	col := NewCollector()
	var evs []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "FUNC":
			if len(fields) < 4 {
				return nil, fmt.Errorf("vt: trace line %d: short FUNC record", line)
			}
			rank, err1 := strconv.Atoi(fields[1])
			id, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("vt: trace line %d: bad FUNC ids", line)
			}
			col.AddFuncTable(int32(rank), map[int32]string{int32(id): strings.Join(fields[3:], " ")})
		case "EVT":
			if len(fields) != 8 {
				return nil, fmt.Errorf("vt: trace line %d: EVT needs 8 fields, has %d", line, len(fields))
			}
			var nums [7]int64
			for i, f := range []string{fields[1], fields[2], fields[3], fields[5], fields[6], fields[7]} {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("vt: trace line %d: %v", line, err)
				}
				nums[i] = v
			}
			kind, ok := kindFromString(fields[4])
			if !ok {
				return nil, fmt.Errorf("vt: trace line %d: unknown kind %q", line, fields[4])
			}
			evs = append(evs, Event{
				At: des.Time(nums[0]), Rank: int32(nums[1]), TID: int32(nums[2]),
				Kind: kind, ID: int32(nums[3]), A: nums[4], B: nums[5],
			})
		default:
			return nil, fmt.Errorf("vt: trace line %d: unknown record %q", line, fields[0])
		}
	}
	col.Append(evs)
	return col, sc.Err()
}
