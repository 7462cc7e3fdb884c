package par

// BenchmarkParOverhead measures the engine's per-item dispatch cost for
// tiny work items — the regime where scheduling overhead, not the work,
// dominates. The ns/item metric bounds how small a work item can be
// before funneling it through the engine stops paying: 3.4 ns at 4
// workers on a 2.10 GHz Xeon (linux/amd64, 2026-08-06).

import (
	"fmt"
	"testing"
)

func BenchmarkParOverhead(b *testing.B) {
	for _, workers := range []int{1, 4} {
		for _, items := range []int{1 << 10, 1 << 16} {
			b.Run(fmt.Sprintf("workers=%d/items=%d", workers, items), func(b *testing.B) {
				sink := make([]int64, items)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ForN(items, func(j int) { sink[j]++ }, Workers(workers))
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(items), "ns/item")
			})
		}
	}
}

// TestForNErrReusesRunState pins the descriptor pooling: after a
// parallel run the pooled runState must not retain the caller's closure
// or observer, and repeated multi-worker runs must stay within a small
// constant allocation budget (the old closure-per-call implementation
// paid for the closure plus every captured variable).
func TestForNErrReusesRunState(t *testing.T) {
	var out [64]int64
	fn := func(i int) error { out[i]++; return nil }
	opts := []Option{Workers(4)}
	if err := ForNErr(len(out), fn, opts...); err != nil {
		t.Fatal(err)
	}
	st := statePool.Get().(*runState)
	if st.fn != nil || st.obs != nil || st.firstErr != nil {
		t.Error("pooled runState retains per-run references")
	}
	statePool.Put(st)

	avg := testing.AllocsPerRun(50, func() {
		if err := ForNErr(len(out), fn, opts...); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: runtime goroutine bookkeeping for the 4 spawned workers.
	// The descriptor itself is pooled; the pre-pooling implementation
	// paid for a worker closure plus a heap cell per captured variable
	// on top of the spawns.
	if avg > 6 {
		t.Errorf("ForNErr allocates %.1f per multi-worker call, want ≤ 6", avg)
	}

	serial := []Option{Workers(1)}
	avg = testing.AllocsPerRun(50, func() {
		if err := ForNErr(len(out), fn, serial...); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("serial ForNErr allocates %.1f per call, want 0", avg)
	}
}
