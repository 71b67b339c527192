package mutps

// One testing.B benchmark per table and figure of the paper's evaluation,
// as DESIGN.md's experiment index requires. Each benchmark regenerates its
// experiment at quick scale on the simulated substrate (go test -bench
// reports wall time per regeneration; the printed rows appear with -v via
// cmd/mutps-bench). BenchmarkStore* additionally exercise the real store.

import (
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"

	"mutps/internal/bench"
)

func benchScale() bench.Scale {
	s := bench.QuickScale()
	s.Warm = 2000
	s.Ops = 8000
	s.LatOps = 3000
	return s
}

func BenchmarkFig2a(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig2a(s, io.Discard)
	}
}

func BenchmarkFig2b(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig2b(s, io.Discard)
	}
}

func BenchmarkFig2c(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig2c(s, io.Discard)
	}
}

func BenchmarkTable1(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunTab1(s, io.Discard)
	}
}

func BenchmarkFig7(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		cells := bench.RunFig7(s, io.Discard, []int{8, 256})
		// Report the headline ratio: μTPS over BaseKV on skewed tree reads.
		for _, c := range cells {
			if c.Tree && c.Mix == "YCSB-B" && c.ItemSize == 256 {
				b.ReportMetric(c.MuTPS/c.BaseKV, "speedup-vs-BaseKV")
			}
		}
	}
}

func BenchmarkFig8a(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig8a(s, io.Discard)
	}
}

func BenchmarkFig8bc(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig8bc(s, io.Discard)
	}
}

func BenchmarkFig9(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig9(s, io.Discard)
	}
}

func BenchmarkFig10(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig10(s, io.Discard)
	}
}

func BenchmarkFig11(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig11(s, io.Discard)
	}
}

func BenchmarkFig12(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig12(s, io.Discard)
	}
}

func BenchmarkFig13a(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig13a(s, io.Discard)
	}
}

func BenchmarkFig13b(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig13b(s, io.Discard)
	}
}

func BenchmarkFig13c(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig13c(s, io.Discard)
	}
}

func BenchmarkFig14(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunFig14(s, io.Discard)
	}
}

func BenchmarkTunerAblation(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bench.RunTunerAblation(s, io.Discard)
	}
}

// --- real-store microbenchmarks ----------------------------------------

func benchStore(b *testing.B, engine Engine) *Store {
	b.Helper()
	s, err := Open(Options{Engine: engine, Workers: 4, RefreshInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	for i := uint64(0); i < 1<<16; i++ {
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], i)
		s.Preload(i, v[:])
	}
	return s
}

func BenchmarkStoreGetHash(b *testing.B) {
	s := benchStore(b, Hash)
	b.ReportAllocs()
	b.ResetTimer()
	i := uint64(0)
	for n := 0; n < b.N; n++ {
		i = i*6364136223846793005 + 1
		s.Get(i % (1 << 16))
	}
}

// BenchmarkStoreGetIntoHash is the YCSB-C-style zero-alloc read path: the
// caller threads one value buffer through every request.
func BenchmarkStoreGetIntoHash(b *testing.B) {
	s := benchStore(b, Hash)
	b.ReportAllocs()
	b.ResetTimer()
	i := uint64(0)
	buf := make([]byte, 0, 8)
	for n := 0; n < b.N; n++ {
		i = i*6364136223846793005 + 1
		v, _, _ := s.GetInto(i%(1<<16), buf)
		buf = v[:0]
	}
}

// BenchmarkStorePutHash is the write-heavy gate: every put replaces the
// item (the value length alternates between 24 and 28 bytes, both in the
// 32-byte size class), so the benchmark measures the full item-replacement
// path — allocate, index swap, retire, reclaim. The steady state is
// 0 allocs/op; GC cycles per second are reported beside it (the pre-arena
// comparison is EXPERIMENTS.md PR 5).
func BenchmarkStorePutHash(b *testing.B) {
	benchmarkStorePutHash(b, Options{Engine: Hash, Workers: 4, RefreshInterval: -1})
}

func benchmarkStorePutHash(b *testing.B, o Options) {
	s, err := Open(o)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	for i := uint64(0); i < 1<<16; i++ {
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], i)
		s.Preload(i, v[:])
	}
	v24 := make([]byte, 24)
	v28 := make([]byte, 28)
	// Per-key toggle: consecutive puts to the same key always alternate
	// 24 ↔ 28 bytes, so every put after a key's first is an item
	// replacement (same 32-byte size class, different length).
	var flip [1 << 16]bool
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	i := uint64(0)
	for n := 0; n < b.N; n++ {
		i = i*6364136223846793005 + 1
		k := i % (1 << 16)
		v := v24
		if flip[k] {
			v = v28
		}
		flip[k] = !flip[k]
		s.Put(k, v)
	}
	b.StopTimer()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if el := time.Since(t0).Seconds(); el > 0 {
		b.ReportMetric(float64(m1.NumGC-m0.NumGC)/el, "GC/s")
	}
}

func BenchmarkStorePutTree(b *testing.B) {
	s := benchStore(b, Tree)
	var v [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	i := uint64(0)
	for n := 0; n < b.N; n++ {
		i = i*6364136223846793005 + 1
		s.Put(i%(1<<16), v[:])
	}
}

func BenchmarkStoreScanTree(b *testing.B) {
	s := benchStore(b, Tree)
	b.ReportAllocs()
	b.ResetTimer()
	i := uint64(0)
	for n := 0; n < b.N; n++ {
		i = i*6364136223846793005 + 1
		if _, err := s.Scan(i%(1<<16), 50); err != nil {
			b.Fatal(err)
		}
	}
}
