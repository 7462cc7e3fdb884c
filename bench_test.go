package sudc

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=. -benchmem). Each benchmark runs one exhibit
// end to end — physical design closure, costing, and table assembly — and
// prints the resulting rows once, so a bench run doubles as a full
// reproduction log. Paper-vs-measured values are recorded in
// EXPERIMENTS.md.

import (
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"sudc/internal/accel"
	"sudc/internal/degrade"
	"sudc/internal/dse"
	"sudc/internal/experiments"
	"sudc/internal/faults"
	"sudc/internal/netsim"
	"sudc/internal/obs"
	"sudc/internal/obs/slo"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/par/partest"
	"sudc/internal/placement"
	"sudc/internal/reliability"
	"sudc/internal/topo"
	"sudc/internal/workload"
)

// printOnce prints each exhibit a single time per bench run, not once per
// benchmark iteration.
var printOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tbl experiments.Table
	for i := 0; i < b.N; i++ {
		tbl, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, done := printOnce.LoadOrStore(id, true); !done {
		b.StopTimer()
		fmt.Printf("\n%s\n", tbl)
		b.StartTimer()
	}
}

func BenchmarkTableI(b *testing.B)   { benchExperiment(b, "Table I") }
func BenchmarkTableII(b *testing.B)  { benchExperiment(b, "Table II") }
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, "Table III") }
func BenchmarkFig3(b *testing.B)     { benchExperiment(b, "Figure 3") }
func BenchmarkFig4(b *testing.B)     { benchExperiment(b, "Figure 4") }
func BenchmarkFig5(b *testing.B)     { benchExperiment(b, "Figure 5") }
func BenchmarkFig6(b *testing.B)     { benchExperiment(b, "Figure 6") }
func BenchmarkFig7(b *testing.B)     { benchExperiment(b, "Figure 7") }
func BenchmarkFig8(b *testing.B)     { benchExperiment(b, "Figure 8") }
func BenchmarkFig9(b *testing.B)     { benchExperiment(b, "Figure 9") }
func BenchmarkFig10(b *testing.B)    { benchExperiment(b, "Figure 10") }
func BenchmarkFig11(b *testing.B)    { benchExperiment(b, "Figure 11") }
func BenchmarkFig12(b *testing.B)    { benchExperiment(b, "Figure 12") }
func BenchmarkFig15(b *testing.B)    { benchExperiment(b, "Figure 15") }
func BenchmarkFig16(b *testing.B)    { benchExperiment(b, "Figure 16") }
func BenchmarkFig17(b *testing.B)    { benchExperiment(b, "Figure 17") }
func BenchmarkFig19(b *testing.B)    { benchExperiment(b, "Figure 19") }
func BenchmarkFig21(b *testing.B)    { benchExperiment(b, "Figure 21") }
func BenchmarkFig22(b *testing.B)    { benchExperiment(b, "Figure 22") }
func BenchmarkFig23(b *testing.B)    { benchExperiment(b, "Figure 23") }
func BenchmarkFig24(b *testing.B)    { benchExperiment(b, "Figure 24") }
func BenchmarkFig25(b *testing.B)    { benchExperiment(b, "Figure 25") }
func BenchmarkFig26(b *testing.B)    { benchExperiment(b, "Figure 26") }
func BenchmarkFig27(b *testing.B)    { benchExperiment(b, "Figure 27") }
func BenchmarkFig28(b *testing.B)    { benchExperiment(b, "Figure 28") }

// BenchmarkDesignClosure measures the core fixed-point design iteration
// alone — the hot path under every TCO query.
func BenchmarkDesignClosure(b *testing.B) {
	cfg := Config(4 * Kilowatt)
	for i := 0; i < b.N; i++ {
		if _, err := Design(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCO measures a full design + costing round trip.
func BenchmarkTCO(b *testing.B) {
	cfg := Config(4 * Kilowatt)
	for i := 0; i < b.N; i++ {
		if _, err := TCO(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks: the design-choice studies behind DESIGN.md.
func benchAblation(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.AblationByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tbl experiments.Table
	for i := 0; i < b.N; i++ {
		tbl, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, done := printOnce.LoadOrStore(id, true); !done {
		b.StopTimer()
		fmt.Printf("\n%s\n", tbl)
		b.StartTimer()
	}
}

func BenchmarkAblationThermal(b *testing.B)     { benchAblation(b, "Ablation A1") }
func BenchmarkAblationPowerSource(b *testing.B) { benchAblation(b, "Ablation A2") }
func BenchmarkAblationThruster(b *testing.B)    { benchAblation(b, "Ablation A3") }
func BenchmarkAblationSolarCell(b *testing.B)   { benchAblation(b, "Ablation A4") }
func BenchmarkAblationISLLaw(b *testing.B)      { benchAblation(b, "Ablation A5") }
func BenchmarkAblationDecode(b *testing.B)      { benchAblation(b, "Ablation A6") }
func BenchmarkAblationBatchSize(b *testing.B)   { benchAblation(b, "Ablation A7") }

// benchWorkers are the scaling points tracked PR over PR.
var benchWorkers = []int{1, 2, 4, 8}

// BenchmarkDSEParallel measures the uncached 7168-design exploration at
// fixed worker counts, so the engine's scaling is visible in every bench
// run regardless of the machine's GOMAXPROCS.
func BenchmarkDSEParallel(b *testing.B) {
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			partest.WithDefaultWorkers(b, w)
			for i := 0; i < b.N; i++ {
				if _, err := dse.Explore(workload.Suite, accel.RTX3090Baseline); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonteCarloParallel measures the sharded reliability
// Monte-Carlo at fixed worker counts.
func BenchmarkMonteCarloParallel(b *testing.B) {
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			partest.WithDefaultWorkers(b, w)
			for i := 0; i < b.N; i++ {
				if _, _, err := reliability.Simulate(30, 10, 1.25, 200000, 42); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Extension benchmarks: studies beyond the paper's evaluation.
func benchExtension(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ExtensionByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tbl experiments.Table
	for i := 0; i < b.N; i++ {
		tbl, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, done := printOnce.LoadOrStore(id, true); !done {
		b.StopTimer()
		fmt.Printf("\n%s\n", tbl)
		b.StartTimer()
	}
}

func BenchmarkExtFleetPlan(b *testing.B)      { benchExtension(b, "Extension E1") }
func BenchmarkExtMaintenance(b *testing.B)    { benchExtension(b, "Extension E2") }
func BenchmarkExtGEO(b *testing.B)            { benchExtension(b, "Extension E3") }
func BenchmarkExtPipelineTiming(b *testing.B) { benchExtension(b, "Extension E4") }

func BenchmarkExtBentPipe(b *testing.B) { benchExtension(b, "Extension E5") }

func BenchmarkExtTradeStudy(b *testing.B) { benchExtension(b, "Extension E6") }

func BenchmarkExtOverprovision(b *testing.B) { benchExtension(b, "Extension E7") }

// benchFaults is every fault process at once: permanent worker deaths,
// transient SEFI hangs and ISL outages. Faulted and Degraded share it.
var benchFaults = faults.Scenario{
	NodeMTTF:          8 * time.Hour,
	SEFIMTBE:          30 * time.Minute,
	SEFIRecovery:      30 * time.Second,
	ISLOutageMTBF:     30 * time.Minute,
	ISLOutageDuration: time.Minute,
}

// Walker graphs are immutable, so each is built once per process.
var (
	walker1k = sync.OnceValues(func() (*topo.Graph, error) { return topo.Walker(16, 64, 33, 2, 200*time.Millisecond) })
	walker4k = sync.OnceValues(func() (*topo.Graph, error) { return topo.Walker(64, 64, 33, 2, 200*time.Millisecond) })
)

// starConfig is the reference run: netsim.DefaultConfig(Air Pollution),
// 64 satellites feeding 33 workers for 2 simulated hours, fault-free.
func starConfig(testing.TB) netsim.Config { return netsim.DefaultConfig(workload.Suite[0]) }

// walkerConfig runs g for d through the sharded conservative-lookahead
// runner at the given shard count.
func walkerConfig(g func() (*topo.Graph, error), d time.Duration, shards int) func(testing.TB) netsim.Config {
	return func(tb testing.TB) netsim.Config {
		gr, err := g()
		if err != nil {
			tb.Fatal(err)
		}
		c := netsim.TopologyConfig(workload.Suite[0], gr)
		c.Duration = d
		c.Shards = shards
		return c
	}
}

// benchScenario is one DES configuration shared by a BenchmarkNetsim*
// benchmark, TestBenchScenarioWork and TestBenchScenarioAllocs.
type benchScenario struct {
	name string
	// config returns one run's configuration; the sinks that hold
	// per-run state (registry, recorder) are fresh on every call.
	config func(testing.TB) netsim.Config
}

var benchScenarios = []benchScenario{
	// Netsim is the fault-free reference run with every probe nil.
	{"Netsim", starConfig},
	// Observed adds a metrics registry: series sampled every simulated
	// minute, latency and backoff histograms, end-of-run counters.
	{"Observed", func(tb testing.TB) netsim.Config {
		c := starConfig(tb)
		c.Obs = obs.New()
		return c
	}},
	// Windowed is Observed plus tumbling 10-minute windows, an OnWindow
	// sink and the default SLO burn-rate engine.
	{"Windowed", func(tb testing.TB) netsim.Config {
		c := starConfig(tb)
		sc := slo.DefaultConfig()
		c.Obs = obs.New()
		c.Window = 10 * time.Minute
		c.OnWindow = func(window.Window) {}
		c.SLO = &sc
		return c
	}},
	// Traced attaches the frame-lineage flight recorder, which keeps
	// every frame's lifecycle events.
	{"Traced", func(tb testing.TB) netsim.Config {
		c := starConfig(tb)
		c.Trace = trace.New(0)
		return c
	}},
	// Faulted runs the reference scenario with every fault process on.
	{"Faulted", func(tb testing.TB) netsim.Config {
		c := starConfig(tb)
		c.Faults = benchFaults
		return c
	}},
	// Degraded is Faulted plus the full-severity COTS degradation
	// schedule: sunlit thermal throttling, the eclipse brownout with
	// worker re-dispatch, and the temperature-modulated SEFI stream.
	{"Degraded", func(tb testing.TB) netsim.Config {
		c := starConfig(tb)
		c.Faults = benchFaults
		p := degrade.COTSProfile(1)
		c.Degrade = &p
		return c
	}},
	// Placed routes every frame across onboard, SµDC, ground-edge and
	// cloud with the queue-aware four-tier placement policy.
	{"Placed", func(tb testing.TB) netsim.Config {
		c := starConfig(tb)
		pc, err := placement.DefaultScenario(workload.Suite[0]).Config(placement.Policy{Kind: placement.QueueAware})
		if err != nil {
			tb.Fatal(err)
		}
		c.Placement = pc
		return c
	}},
	// Sharded/shards=N runs a 1024-satellite Walker (16 planes × 64
	// satellites, an SµDC every other plane, 200 ms inter-plane ISL)
	// for 1 h. Results are byte-identical at every shard count.
	{"Sharded/shards=1", walkerConfig(walker1k, time.Hour, 1)},
	{"Sharded/shards=2", walkerConfig(walker1k, time.Hour, 2)},
	{"Sharded/shards=8", walkerConfig(walker1k, time.Hour, 8)},
	// Sharded4k runs the synchronizer at constellation scale: a
	// 4096-satellite Walker (64 cells) over 10 simulated minutes.
	{"Sharded4k", walkerConfig(walker4k, 10*time.Minute, 1)},
}

func scenarioByName(tb testing.TB, name string) benchScenario {
	for _, s := range benchScenarios {
		if s.name == name {
			return s
		}
	}
	tb.Fatalf("no bench scenario %q", name)
	return benchScenario{}
}

func benchNetsim(b *testing.B, name string) {
	s := scenarioByName(b, name)
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Run(s.config(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// The DES benchmarks time one run of each scenario. Their wall times
// depend on the host; TestBenchScenarioWork and TestBenchScenarioAllocs
// pin the exact work and allocations behind them, which do not.
func BenchmarkNetsim(b *testing.B)          { benchNetsim(b, "Netsim") }
func BenchmarkNetsimObserved(b *testing.B)  { benchNetsim(b, "Observed") }
func BenchmarkNetsimWindowed(b *testing.B)  { benchNetsim(b, "Windowed") }
func BenchmarkNetsimTraced(b *testing.B)    { benchNetsim(b, "Traced") }
func BenchmarkNetsimFaulted(b *testing.B)   { benchNetsim(b, "Faulted") }
func BenchmarkNetsimDegraded(b *testing.B)  { benchNetsim(b, "Degraded") }
func BenchmarkNetsimPlaced(b *testing.B)    { benchNetsim(b, "Placed") }
func BenchmarkNetsimSharded4k(b *testing.B) { benchNetsim(b, "Sharded4k") }

func BenchmarkNetsimSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchNetsim(b, fmt.Sprintf("Sharded/shards=%d", shards))
		})
	}
}

// scenarioWork is the exact work of one scenario run, a pure function
// of the code and the config on any host: the DES events by kind
// ("events/<kind>", summed over cells), FramesGenerated, Stats.Sync's
// rounds, cell runs and cross-cell messages, the recorded trace events
// and the sealed windows. Zero counts are left out.
type scenarioWork map[string]int64

// plus returns w with extra's counts set.
func (w scenarioWork) plus(extra scenarioWork) scenarioWork {
	m := maps.Clone(w)
	maps.Copy(m, extra)
	return m
}

// starWork is the fault-free reference run's work.
var starWork = scenarioWork{"frames": 46083,
	"events/frame_ready": 46083, "events/isl_done": 46083, "events/batch_done": 5787, "events/batch_timeout": 59}

// faultedWork adds the fault processes' events to the reference run's.
var faultedWork = scenarioWork{"frames": 46083,
	"events/frame_ready": 46083, "events/isl_done": 46084, "events/batch_done": 5799, "events/batch_timeout": 59,
	"events/isl_retry": 9, "events/outage_start": 2, "events/outage_end": 2,
	"events/sefi_start": 118, "events/sefi_end": 118, "events/worker_death": 11}

// walker1kWork is the 1024-satellite Walker's work, the same at every
// shard count.
var walker1kWork = scenarioWork{"frames": 368644, "sync/rounds": 16449, "sync/cell_runs": 207937, "sync/cross_msgs": 184329,
	"events/frame_ready": 368644, "events/isl_done": 552954, "events/arrive_msg": 184312,
	"events/batch_done": 46154, "events/batch_timeout": 232}

// benchWork pins every scenario's work. A change that alters one of
// these numbers changes what the benchmarks measure; move the pin only
// with the reason in CHANGES.md.
var benchWork = map[string]scenarioWork{
	"Netsim":   starWork,
	"Observed": starWork,
	"Windowed": starWork.plus(scenarioWork{"windows": 12}),
	"Traced":   starWork.plus(scenarioWork{"trace/events": 297146}),
	"Faulted":  faultedWork,
	"Degraded": faultedWork.plus(scenarioWork{"events/batch_done": 5808, "events/sefi_start": 165, "events/sefi_end": 165,
		"events/phase": 2}),
	"Placed":           {"frames": 46083, "events/frame_ready": 46083, "events/onboard_done": 46060},
	"Sharded/shards=1": walker1kWork,
	"Sharded/shards=2": walker1kWork,
	"Sharded/shards=8": walker1kWork,
	"Sharded4k": {"frames": 245804, "sync/rounds": 2754, "sync/cell_runs": 139710, "sync/cross_msgs": 122912,
		"events/frame_ready": 245804, "events/isl_done": 368649, "events/arrive_msg": 122866,
		"events/batch_done": 30630, "events/batch_timeout": 128},
}

// measureWork runs s once with a registry attached and reads its work.
func measureWork(t *testing.T, s benchScenario) scenarioWork {
	c := s.config(t)
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	var windows int64
	if c.OnWindow != nil {
		c.OnWindow = func(window.Window) { windows++ }
	}
	st, err := netsim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	w := scenarioWork{"frames": int64(st.FramesGenerated), "windows": windows, "trace/events": int64(c.Trace.Len()),
		"sync/rounds": int64(st.Sync.Rounds), "sync/cell_runs": int64(st.Sync.CellRuns), "sync/cross_msgs": int64(st.Sync.CrossMsgs)}
	for _, cv := range c.Obs.Snapshot().Counters {
		if i := strings.Index(cv.Name, "events/"); i >= 0 {
			w[cv.Name[i:]] += cv.Value
		}
	}
	maps.DeleteFunc(w, func(_ string, n int64) bool { return n == 0 })
	return w
}

func TestBenchScenarioWork(t *testing.T) {
	for _, s := range benchScenarios {
		got, want := measureWork(t, s), benchWork[s.name]
		if want == nil {
			t.Errorf("%s: no work pin; measured %v", s.name, got)
			continue
		}
		for k, n := range got {
			if want[k] != n {
				t.Errorf("%s: %s = %d, pinned %d", s.name, k, n, want[k])
			}
		}
		for k, n := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: %s = 0, pinned %d", s.name, k, n)
			}
		}
	}
}

// benchAllocs pins the heap allocations of one warm run of each star
// scenario. The Sharded scenarios are left out: their shard workers are
// goroutines whose scheduling moves the count from run to run (275-280
// at shards=1 without -race, 336-533 with it).
var benchAllocs = map[string]uint64{
	"Netsim":   24,
	"Observed": 119,
	"Windowed": 164,
	"Traced":   41,
	"Faulted":  108,
	"Degraded": 115,
	"Placed":   24,
}

// allocTries bounds the runs TestBenchScenarioAllocs makes to see a
// scenario's pinned count.
const allocTries = 10

func TestBenchScenarioAllocs(t *testing.T) {
	// With the collector off the pooled simulator arenas stay warm, so a
	// warm run allocates only what the run itself needs. A run can cost
	// more (under -race sync.Pool drops a quarter of its puts, and a
	// miss rebuilds the arenas), never less: the test asks for the
	// pinned count within allocTries runs and for no run below it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, s := range benchScenarios {
		want, pinned := benchAllocs[s.name]
		if !pinned {
			continue
		}
		var ms runtime.MemStats
		fewest := ^uint64(0)
		for i := 0; i < allocTries && fewest > want; i++ {
			c := s.config(t)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			if _, err := netsim.Run(c); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			fewest = min(fewest, ms.Mallocs-before)
		}
		if fewest != want {
			t.Errorf("%s: allocs/run = %d (fewest of up to %d runs), pinned %d", s.name, fewest, allocTries, want)
		}
	}
}
