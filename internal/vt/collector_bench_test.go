package vt

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// benchKernels are the kernels whose recorded traces live in testdata, in
// the compact figure's order.
var benchKernels = []string{"smg98", "sppm", "sweep3d", "umt98"}

// recordedStream is one kernel's recorded trace: the per-rank function
// tables and the flush batches in the order the run appended them.
type recordedStream struct {
	funcs   map[int32]map[int32]string
	batches [][]Event
	events  int
}

// loadStream reads testdata/<app>.vgvc, the kernel's Full-instrumentation
// run at the compact figure's deck. Every frame of the file is one rank's
// flush batch, so replaying the frames replays the run's collector traffic.
func loadStream(b *testing.B, app string) recordedStream {
	b.Helper()
	f, err := os.Open(filepath.Join("testdata", app+".vgvc"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	col, err := ReadCompactTrace(f)
	if err != nil {
		b.Fatal(err)
	}
	defer col.Release()
	st := recordedStream{funcs: col.funcs}
	var dec decoder
	for _, blk := range col.blocks {
		batch, _, _, err := dec.block(col.carena[blk.off:blk.end], blk.count, nil)
		if err != nil {
			b.Fatal(err)
		}
		st.batches = append(st.batches, batch)
		st.events += len(batch)
	}
	return st
}

// fill builds a collector holding the stream.
func (st recordedStream) fill(col *Collector) *Collector {
	for rank, names := range st.funcs {
		col.AddFuncTable(rank, names)
	}
	for _, batch := range st.batches {
		col.Append(batch)
	}
	return col
}

// eachKernel runs bench once per recorded kernel stream.
func eachKernel(b *testing.B, bench func(b *testing.B, st recordedStream)) {
	for _, app := range benchKernels {
		b.Run(app, func(b *testing.B) {
			st := loadStream(b, app)
			b.ReportAllocs()
			b.ResetTimer()
			bench(b, st)
		})
	}
}

// benchAppend replays a kernel's flush batches into a collector, one
// whole stream per op (the per-rank hot path at every mid-run flush and
// at termination).
func benchAppend(b *testing.B, newCol func() *Collector) {
	eachKernel(b, func(b *testing.B, st recordedStream) {
		col := newCol()
		for i := 0; i < b.N; i++ {
			if col.Len() > 1<<20 {
				// Bound collector growth so the benchmark measures
				// Append, not unbounded memory pressure.
				b.StopTimer()
				col.Release()
				col = newCol()
				b.StartTimer()
			}
			for _, batch := range st.batches {
				col.Append(batch)
			}
		}
		b.StopTimer()
		if cs := col.CompactStats(); cs.EventsIn > 0 {
			b.ReportMetric(float64(cs.Bytes)/float64(cs.EventsIn), "bytes/event")
		}
		col.Release()
	})
}

// BenchmarkCollectorAppend measures merging the recorded flush batches
// into a verbatim collector.
func BenchmarkCollectorAppend(b *testing.B) { benchAppend(b, NewCollector) }

// BenchmarkCollectorAppendCompact is BenchmarkCollectorAppend against a
// compact collector: the encode cost paid online per flush batch. The
// bytes/event metric is the suppression ratio on the kernel's traffic.
func BenchmarkCollectorAppendCompact(b *testing.B) { benchAppend(b, NewCompactCollector) }

// BenchmarkCollectorEvents measures the merged-view cost of a collector
// holding a kernel's stream, as the analysis, trace-writer and render
// paths all pay it.
func BenchmarkCollectorEvents(b *testing.B) {
	eachKernel(b, func(b *testing.B, st recordedStream) {
		col := st.fill(NewCollector())
		defer col.Release()
		for i := 0; i < b.N; i++ {
			if evs := col.Events(); len(evs) != st.events {
				b.Fatalf("got %d events, want %d", len(evs), st.events)
			}
		}
	})
}

// BenchmarkCollectorWriteTrace measures the textual dump path end to end.
func BenchmarkCollectorWriteTrace(b *testing.B) {
	eachKernel(b, func(b *testing.B, st recordedStream) {
		col := st.fill(NewCollector())
		defer col.Release()
		for i := 0; i < b.N; i++ {
			if err := col.WriteTrace(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCollectorWriteCompactTrace is the compact dump path against
// BenchmarkCollectorWriteTrace's workload: a sealed-block copy-out instead
// of text formatting.
func BenchmarkCollectorWriteCompactTrace(b *testing.B) {
	eachKernel(b, func(b *testing.B, st recordedStream) {
		col := st.fill(NewCompactCollector())
		defer col.Release()
		for i := 0; i < b.N; i++ {
			if err := col.WriteCompactTrace(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompactEncode measures the raw encoder over a kernel's flush
// batches, one block per batch: throughput in events (SetBytes counts
// events) and bytes/event of the encoded stream.
func BenchmarkCompactEncode(b *testing.B) {
	eachKernel(b, func(b *testing.B, st recordedStream) {
		var enc encoder
		var buf []byte
		encoded := 0
		b.SetBytes(int64(st.events))
		for i := 0; i < b.N; i++ {
			encoded = 0
			for _, batch := range st.batches {
				buf, _, _ = enc.encodeBlock(buf[:0], batch)
				encoded += len(buf)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(encoded)/float64(st.events), "bytes/event")
	})
}

// BenchmarkCompactDecode measures reconstruction of the same blocks.
func BenchmarkCompactDecode(b *testing.B) {
	eachKernel(b, func(b *testing.B, st recordedStream) {
		b.StopTimer()
		var enc encoder
		blocks := make([][]byte, len(st.batches))
		for i, batch := range st.batches {
			blocks[i], _, _ = enc.encodeBlock(nil, batch)
		}
		var dec decoder
		var out []Event
		b.SetBytes(int64(st.events))
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			for j, block := range blocks {
				var err error
				out, _, _, err = dec.block(block, len(st.batches[j]), out[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
