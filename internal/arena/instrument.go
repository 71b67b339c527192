package arena

import (
	"fmt"

	"mutps/internal/obs"
)

// Instrument registers the arena's accounting with a metrics registry:
// total live bytes, per-class occupancy (live, ever-carved, and
// central-free slots, one series per class for all 28 classes, labelled
// class="<slot bytes>"), and the traffic counters (chunk allocations,
// cache refills/flushes, large-object fallbacks). All series are
// collection-time funcs over the arena's lock-free counters — scraping
// costs the hot path nothing.
func (a *Arena) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("mutps_arena_live_bytes", "",
		"Bytes of item value storage currently held out of the arena (slot-size granularity).",
		func() float64 { return float64(a.Snapshot().LiveBytes) })
	for cl := 0; cl < NumClasses; cl++ {
		cl := cl
		label := fmt.Sprintf(`class="%d"`, classBytes(cl))
		reg.GaugeFunc("mutps_arena_live_slots", label,
			"Arena slots currently held by items, per size class.",
			func() float64 { return float64(a.liveSlots(cl)) })
		reg.CounterFunc("mutps_arena_carved_slots_total", label,
			"Arena slots ever carved from backing chunks, per size class.",
			func() float64 { return float64(a.classes[cl].carved.Load()) })
		reg.GaugeFunc("mutps_arena_central_free_slots", label,
			"Arena slots parked in the central free lists, per size class.",
			func() float64 { return float64(a.classes[cl].nfree.Load()) })
	}
	reg.CounterFunc("mutps_arena_chunks_total", "",
		"Backing chunks allocated from the Go heap.",
		func() float64 { return float64(a.chunks.Load()) })
	reg.CounterFunc("mutps_arena_refills_total", "",
		"Worker-cache refills from a central free list.",
		func() float64 { return float64(a.refills.Load()) })
	reg.CounterFunc("mutps_arena_flushes_total", "",
		"Worker-cache flushes back to a central free list.",
		func() float64 { return float64(a.flushes.Load()) })
	reg.CounterFunc("mutps_arena_fallbacks_total", "",
		"Allocations larger than the largest size class, served by the Go heap.",
		func() float64 { return float64(a.fallbacks.Load()) })
}

// liveSlots sums one class's live-slot count across every cache.
func (a *Arena) liveSlots(cl int) uint64 {
	a.mu.Lock()
	caches := a.caches
	a.mu.Unlock()
	var allocs, frees uint64
	for _, c := range caches {
		allocs += c.cls[cl].allocs.Load()
		frees += c.cls[cl].frees.Load()
	}
	if allocs <= frees {
		return 0
	}
	return allocs - frees
}
