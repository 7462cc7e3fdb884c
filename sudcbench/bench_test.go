package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		ok   bool
	}{
		{n: 0},
		{n: 10},                 // nothing can leave ten ops beyond it
		{n: 11, p: 9, ok: true}, // rank 1 leaves 10
		{n: 20, p: 50, ok: true},
		{n: 40, p: 75, ok: true},
		{n: 100, p: 90, ok: true},
		{n: 1000, p: 99, ok: true},
		{n: 5000, p: 99, ok: true}, // capped at the 99th
	} {
		p, ok := tailPercentile(tc.n, minBeyond)
		if p != tc.p || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, p, ok, tc.p, tc.ok)
		}
		if ok && tc.n-nearestRank(p, tc.n) < minBeyond {
			t.Errorf("n=%d: p%d leaves %d ops beyond it", tc.n, p, tc.n-nearestRank(p, tc.n))
		}
		if ok && p < 99 && tc.n-nearestRank(p+1, tc.n) >= minBeyond {
			t.Errorf("n=%d: p%d is not the highest qualifying percentile", tc.n, p)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40 … 1, unsorted input
	}
	v, p := tail(xs)
	if p != 75 || v != 30 {
		t.Errorf("tail of 1..40 = %v at p%d, want 30 at p75", v, p)
	}
	if v, p := tail([]float64{3, 1, 2}); p != 50 || v != 2 {
		t.Errorf("tail of three samples = %v at p%d, want the median 2 at p50", v, p)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

// mkSpan builds a span with times in milliseconds.
func mkSpan(id int, name string, op, parent int, startMs, endMs int64) span {
	ms := int64(time.Millisecond)
	return span{ID: id, Name: name, Op: op, Parent: parent, Start: startMs * ms, End: endMs * ms}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		mkSpan(0, "op", 0, -1, 0, 100),
		mkSpan(1, "netsim.run", 0, 0, 10, 40),
		mkSpan(2, "inner", 0, 1, 15, 25),
		mkSpan(3, "obs.trace.write_jsonl", 0, 0, 40, 70),
		// Overlapping children count once: 75–95 is covered.
		mkSpan(4, "a", 0, 0, 75, 90),
		mkSpan(5, "b", 0, 0, 80, 95),
		// A second op with the same layer sums per op, not across ops.
		mkSpan(6, "op", 1, -1, 200, 250),
		mkSpan(7, "netsim.run", 1, 6, 200, 250),
	}
	got := selfTimes(spans)
	ms := time.Millisecond
	want := map[int]map[string]time.Duration{
		0: {"op": 20 * ms, "netsim.run": 20 * ms, "inner": 10 * ms, "obs.trace.write_jsonl": 30 * ms, "a": 15 * ms, "b": 15 * ms},
		1: {"op": 0, "netsim.run": 50 * ms},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v\nwant %v", got, want)
	}
}

func TestSelfTimesRepeatedLayerSums(t *testing.T) {
	spans := []span{
		mkSpan(0, "op", 3, -1, 0, 30),
		mkSpan(1, "experiments.paper", 3, 0, 0, 10),
		mkSpan(2, "experiments.paper", 3, 0, 10, 25),
	}
	got := selfTimes(spans)[3]
	if got["experiments.paper"] != 25*time.Millisecond || got["op"] != 5*time.Millisecond {
		t.Errorf("selfTimes = %v", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.op = 7
	a := tr.begin("op")
	b := tr.begin("netsim.run")
	tr.end(b)
	c := tr.begin("obs.latency.decompose")
	tr.end(c)
	tr.end(a)
	if len(tr.spans) != 3 || tr.spans[b].Parent != a || tr.spans[c].Parent != a || tr.spans[a].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Op != 7 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	var nilTr *tracer
	nilTr.end(nilTr.begin("x")) // a nil tracer records nothing and does not panic
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "netsim.sync.us_per_round", "walker-1k", "E7", "9lives", "a"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space", "slash/name", "ünïcode", "x:y",
		"a23456789012345678901234567890123456789012345678901234567890abcde"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"s", "ms", "1/s", "%", "count", "MB"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a b", "x:y", "seventeen-chars-x"} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON pins the metric tables to the
// repository's BENCHMARK.json: same names, units, and order, every
// name and unit legal and used once.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d declared, BENCHMARK.json has %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: declared %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
			if !validName(d.name) || !validUnit(d.unit) || seen[d.name] {
				t.Errorf("%s: bad or repeated metric %q (%q)", kind, d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || !validName(w.name) || seen[w.name] {
			t.Errorf("workload %d: %q vs BENCHMARK.json %q", i, w.name, spec.Workloads[i].Name)
		}
		seen[w.name] = true
	}
	for k := range registryCounters {
		if !declared(perLayer, registryCounters[k]) {
			t.Errorf("registry counter %s maps to undeclared metric %s", k, registryCounters[k])
		}
	}
}

func TestOpInputsFollowSeed(t *testing.T) {
	g, err := walkerGraph()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := walkerInputs(g, 11), walkerInputs(g, 11); !reflect.DeepEqual(a, b) {
		t.Error("walker-1k: one seed gave different op inputs")
	}
	if a, b := missionInputs(11), missionInputs(11); !reflect.DeepEqual(a, b) {
		t.Error("mission: one seed gave different op inputs")
	}
	w11, w12 := walkerInputs(g, 11), walkerInputs(g, 12)
	m11, m12 := missionInputs(11), missionInputs(12)
	for i := range w11 {
		if reflect.DeepEqual(w11[i], w12[i]) {
			t.Errorf("walker-1k input %d: seeds 11 and 12 gave the same input", i)
		}
		if reflect.DeepEqual(m11[i], m12[i]) {
			t.Errorf("mission input %d: seeds 11 and 12 gave the same input", i)
		}
		for j := range w11 {
			if i != j && w11[i].Seed == w11[j].Seed {
				t.Errorf("walker-1k inputs %d and %d share seed %d", i, j, w11[i].Seed)
			}
		}
	}
}

func TestPinCounts(t *testing.T) {
	var pinned map[string]float64
	if err := pinCounts(&pinned, map[string]float64{"netsim.events": 5}); err != nil {
		t.Fatal(err)
	}
	if err := pinCounts(&pinned, map[string]float64{"netsim.events": 5}); err != nil {
		t.Errorf("identical counts failed: %v", err)
	}
	if err := pinCounts(&pinned, map[string]float64{"netsim.events": 6}); err == nil {
		t.Error("changed count passed")
	}
	if err := pinCounts(&pinned, map[string]float64{"netsim.events": 5, "netsim.frames": 1}); err == nil {
		t.Error("new count passed")
	}
}
