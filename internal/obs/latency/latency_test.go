package latency_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"sudc/internal/constellation"
	"sudc/internal/faults"
	"sudc/internal/netsim"
	"sudc/internal/obs/latency"
	"sudc/internal/obs/trace"
	"sudc/internal/workload"
)

// faultedRun executes a fault-heavy DES scenario with the flight
// recorder attached and returns the recording plus the run's stats.
func faultedRun(t *testing.T) (*trace.Recorder, netsim.Stats, netsim.Config) {
	t.Helper()
	c := netsim.DefaultConfig(workload.Suite[0])
	c.Constellation = constellation.Constellation{Satellites: 2, FramesPerMinute: 6}
	c.Workers = 5
	c.NeedWorkers = 4
	c.BatchSize = 4
	c.BatchTimeout = 30 * time.Second
	c.Duration = time.Hour
	c.Faults = faults.Scenario{
		NodeMTTF:          2 * time.Hour,
		SEFIMTBE:          20 * time.Minute,
		SEFIRecovery:      30 * time.Second,
		ISLOutageMTBF:     30 * time.Minute,
		ISLOutageDuration: time.Minute,
	}
	c.Seed = 9
	c.RetryLimit = 3
	c.ShedThreshold = 40
	rec := trace.New(0)
	c.Trace = rec
	s, err := netsim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return rec, s, c
}

func TestDecompositionSumsToEndToEnd(t *testing.T) {
	rec, s, _ := faultedRun(t)
	frames := latency.DecomposeAll(rec)
	if len(frames) == 0 {
		t.Fatal("no frames decomposed")
	}
	if len(frames) != s.FramesGenerated {
		t.Errorf("decomposed %d frames, stats generated %d", len(frames), s.FramesGenerated)
	}
	for _, f := range frames {
		if d := math.Abs(f.SumStages() - f.Total()); d > 1e-9 {
			t.Errorf("frame %d: stage sum %.12f != total %.12f (|Δ|=%.3g)",
				f.ID, f.SumStages(), f.Total(), d)
		}
		for st, v := range f.Stages {
			if v < 0 {
				t.Errorf("frame %d: negative %v stage %.12f", f.ID, latency.Stage(st), v)
			}
		}
	}
}

func TestOutcomesMatchStats(t *testing.T) {
	rec, s, _ := faultedRun(t)
	frames := latency.DecomposeAll(rec)
	counts := map[string]int{}
	for _, f := range frames {
		counts[f.Outcome]++
	}
	if got := counts["processed"] + counts["downlinked"]; got != s.FramesProcessed {
		t.Errorf("completed frames %d, stats processed %d", got, s.FramesProcessed)
	}
	if counts["downlinked"] != s.InsightsDownlinked {
		t.Errorf("downlinked frames %d, stats %d", counts["downlinked"], s.InsightsDownlinked)
	}
	if counts["shed"] != s.FramesShed {
		t.Errorf("shed frames %d, stats %d", counts["shed"], s.FramesShed)
	}
	if counts["lost"] != s.FramesLost {
		t.Errorf("lost frames %d, stats %d", counts["lost"], s.FramesLost)
	}
}

func TestAvailabilityFromTraceMatchesDES(t *testing.T) {
	rec, s, c := faultedRun(t)
	got := latency.AvailabilityFromTrace(rec.Events(), c.Workers, c.NeedWorkers,
		c.Duration.Seconds())
	if math.Abs(got-s.Availability) > 1e-9 {
		t.Errorf("availability from trace %.12f, DES reported %.12f", got, s.Availability)
	}
	if !math.IsNaN(latency.AvailabilityFromTrace(nil, 0, 1, 100)) {
		t.Error("zero workers must yield NaN")
	}
	if !math.IsNaN(latency.AvailabilityFromTrace(nil, 4, 4, 0)) {
		t.Error("zero horizon must yield NaN")
	}
	if a := latency.AvailabilityFromTrace(nil, 4, 4, 100); a != 1 {
		t.Errorf("fault-free trace availability = %v, want 1", a)
	}
}

func TestDegradedIntervalsReconstructed(t *testing.T) {
	rec, s, c := faultedRun(t)
	ivs := latency.DegradedIntervals(rec.Events(), c.Duration.Seconds())
	if len(ivs) == 0 {
		t.Fatal("fault-heavy run produced no degraded intervals")
	}
	kinds := map[string]int{}
	var downtime float64
	for i, iv := range ivs {
		kinds[iv.Kind]++
		if iv.Duration() < 0 {
			t.Errorf("interval %d has negative duration: %+v", i, iv)
		}
		if i > 0 && iv.Start < ivs[i-1].Start {
			t.Error("intervals must be sorted by start time")
		}
		if iv.Kind == "isl-outage" {
			downtime += iv.Duration()
		}
	}
	if kinds["isl-outage"] == 0 || kinds["sefi"] == 0 || kinds["node-death"] == 0 {
		t.Errorf("expected all three fault kinds, got %v", kinds)
	}
	if des := s.ISLDowntime.Seconds(); math.Abs(downtime-des) > 1e-6 {
		t.Errorf("summed outage intervals %.6fs, DES ISL downtime %.6fs", downtime, des)
	}
}

func TestTopKDeterministicOrder(t *testing.T) {
	rec, _, _ := faultedRun(t)
	frames := latency.DecomposeAll(rec)
	top := latency.TopK(frames, 10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d frames", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Total() > top[i-1].Total() {
			t.Error("TopK must be sorted by descending total latency")
		}
	}
	if got := latency.TopK(frames, -1); len(got) != 0 {
		t.Error("negative k must yield no frames")
	}
	if got := latency.TopK(frames[:3], 10); len(got) != 3 {
		t.Error("k beyond the set must clamp")
	}
}

func TestSummarizeSharesAndPercentiles(t *testing.T) {
	rec, _, _ := faultedRun(t)
	sums := latency.Summarize(latency.DecomposeAll(rec))
	if len(sums) != int(latency.NumStages)+1 {
		t.Fatalf("Summarize returned %d rows", len(sums))
	}
	var share float64
	for _, sm := range sums[:latency.NumStages] {
		share += sm.Share
		if sm.P50 > sm.P95 || sm.P95 > sm.P99 || sm.P99 > sm.Max {
			t.Errorf("%v: percentiles not monotone: %+v", sm.Stage, sm)
		}
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("stage shares sum to %.12f, want 1", share)
	}
	e2e := sums[latency.NumStages]
	if e2e.Share != 1 {
		t.Errorf("end-to-end share = %v, want 1", e2e.Share)
	}
}

func TestQuantileTable(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	} {
		if got := latency.Quantile(sorted, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(latency.Quantile(nil, 0.5)) {
		t.Error("empty sample must yield NaN")
	}
	if !math.IsNaN(latency.Quantile(sorted, -0.1)) || !math.IsNaN(latency.Quantile(sorted, 1.1)) {
		t.Error("q outside [0,1] must yield NaN")
	}
}

func TestCausesAttributed(t *testing.T) {
	rec, _, _ := faultedRun(t)
	frames := latency.DecomposeAll(rec)
	var tagged int
	for _, f := range frames {
		for i, c := range f.Causes {
			if c == "" {
				t.Errorf("frame %d: empty cause", f.ID)
			}
			if i > 0 && f.Causes[i] <= f.Causes[i-1] {
				t.Errorf("frame %d: causes not sorted/distinct: %v", f.ID, f.Causes)
			}
		}
		tagged += len(f.Causes)
	}
	if tagged == 0 {
		t.Error("fault-heavy run attributed no causes to any frame")
	}
}

func TestFormatCauses(t *testing.T) {
	if got := latency.FormatCauses(nil); got != "-" {
		t.Errorf("FormatCauses(nil) = %q", got)
	}
	if got := latency.FormatCauses([]string{"a", "b"}); got != "a,b" {
		t.Errorf("FormatCauses = %q", got)
	}
}

func TestDecomposeNilAndEmpty(t *testing.T) {
	if latency.DecomposeAll(nil) != nil {
		t.Error("nil recorder must decompose to nil")
	}
	if got := latency.Decompose(nil); len(got) != 0 {
		t.Errorf("no events must decompose to no frames, got %d", len(got))
	}
}

// topKBySort is TopK's reference: sort a full copy by (total
// descending, scope, ID) and keep the first k.
func topKBySort(frames []latency.Frame, k int) []latency.Frame {
	sorted := append([]latency.Frame(nil), frames...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Total() != sorted[j].Total() {
			return sorted[i].Total() > sorted[j].Total()
		}
		if sorted[i].Scope != sorted[j].Scope {
			return sorted[i].Scope < sorted[j].Scope
		}
		return sorted[i].ID < sorted[j].ID
	})
	return sorted[:max(0, min(k, len(sorted)))]
}

// TestTopKMatchesSortReference compares the bounded selection with the
// sort-the-copy reference on random frame sets dense in ties: few
// distinct totals and scopes, so the (scope, ID) tie-break decides
// most places. IDs are unique within a scope, as DecomposeAll makes
// them, so the order is total and the outputs must be equal.
func TestTopKMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scopes := []string{"", "r000", "r001", "r001/c"}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		frames := make([]latency.Frame, n)
		for i := range frames {
			frames[i] = latency.Frame{
				ID:       int64(i + 1),
				Scope:    scopes[rng.Intn(len(scopes))],
				Captured: float64(rng.Intn(3)),
				Done:     float64(3 + rng.Intn(4)),
			}
		}
		rng.Shuffle(n, func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
		in := make([]latency.Frame, n)
		copy(in, frames)
		for _, k := range []int{-1, 0, 1, rng.Intn(n + 1), n, n + 5} {
			got := latency.TopK(frames, k)
			if want := topKBySort(frames, k); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("trial %d, k=%d of %d: TopK differs from the sort reference", trial, k, n)
			}
		}
		if !reflect.DeepEqual(frames, in) {
			t.Fatalf("trial %d: TopK modified its input", trial)
		}
	}
	if got := latency.TopK(nil, 3); len(got) != 0 {
		t.Errorf("TopK of no frames returned %d", len(got))
	}
}

// TestDecomposeCarvesOwnTimelines feeds interleaved frames first seen
// in descending ID order and checks the ID ordering, that each frame's
// timeline holds exactly its own events in record order, and that the
// timelines are clipped so appending to one cannot overwrite another.
func TestDecomposeCarvesOwnTimelines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var events []trace.Event
	for i := 0; i < 400; i++ {
		id := int64(20 - rng.Intn(20))
		if i%7 == 0 {
			id = 0 // a frame-less event between frame events
		}
		events = append(events, trace.Event{T: float64(i), Kind: trace.ISLSendStart, Frame: id, Node: -1})
	}
	frames := latency.Decompose(events)
	for i, f := range frames {
		if i > 0 && f.ID <= frames[i-1].ID {
			t.Fatalf("frames out of ID order: %d after %d", f.ID, frames[i-1].ID)
		}
		var want []trace.Event
		for _, e := range events {
			if e.Frame == f.ID {
				want = append(want, e)
			}
		}
		if !reflect.DeepEqual(f.Events, want) {
			t.Fatalf("frame %d: timeline differs from its own events", f.ID)
		}
		if cap(f.Events) != len(f.Events) {
			t.Fatalf("frame %d: timeline cap %d beyond len %d", f.ID, cap(f.Events), len(f.Events))
		}
		if f.Captured != want[0].T {
			t.Fatalf("frame %d: captured %v, first event at %v", f.ID, f.Captured, want[0].T)
		}
	}
}

// TestFaultWindowsAreDegradedIntervalsWithoutCounts pins the split:
// FaultWindows is DegradedIntervals with FramesStalled left at zero.
func TestFaultWindowsAreDegradedIntervalsWithoutCounts(t *testing.T) {
	rec, _, c := faultedRun(t)
	want := latency.DegradedIntervals(rec.View(), c.Duration.Seconds())
	stalled := 0
	for i := range want {
		stalled += want[i].FramesStalled
		want[i].FramesStalled = 0
	}
	if stalled == 0 {
		t.Fatal("fault-heavy run stalled no frames; the test would not tell the two apart")
	}
	if got := latency.FaultWindows(rec.View(), c.Duration.Seconds()); !reflect.DeepEqual(got, want) {
		t.Error("FaultWindows differs from DegradedIntervals without counts")
	}
}
