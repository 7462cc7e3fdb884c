package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"sudc/internal/accel"
	"sudc/internal/degrade"
	"sudc/internal/dse"
	"sudc/internal/experiments"
	"sudc/internal/faults"
	"sudc/internal/netsim"
	"sudc/internal/obs"
	"sudc/internal/obs/latency"
	"sudc/internal/obs/slo"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/par"
	"sudc/internal/topo"
	"sudc/internal/workload"
)

// desInputs is how many distinct op inputs a DES workload forks from
// its seed; op i runs input i mod desInputs. Each input's outputs and
// work counts are pinned by its first op, so every later op on it is
// checked for byte-identical results.
const desInputs = 3

// runner executes one workload's ops after set-up.
type runner interface {
	// inputs is the number of distinct op inputs.
	inputs() int
	// run performs one op on input in; tr is nil on untraced ops.
	run(in int, tr *tracer) error
	// check verifies the outputs of the last run.
	check(in int) error
	// counts returns the exact work counts of the last run, keyed by
	// per-layer metric name. They are a pure function of the input.
	counts() map[string]float64
}

// workloadDef is one named workload of the benchmark; BENCHMARK.json
// says why each was chosen.
type workloadDef struct {
	name string
	// seeded reports whether --seed changes the op inputs. The paper
	// exhibits and the extension studies fix their own inputs.
	seeded bool
	setUp  func(seed int64, tr *tracer) (runner, error)
}

var workloads = []workloadDef{
	{"paper", false, setUpPaper},
	{"sweeps", false, setUpSweeps},
	{"walker-1k", true, setUpWalker},
	{"mission", true, setUpMission},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// --- paper -----------------------------------------------------------

type paperRunner struct {
	exhibits []experiments.Experiment
	explore  dse.Result
	tables   []string
	ref      []string
}

func setUpPaper(int64, *tracer) (runner, error) {
	if _, err := experiments.DSEResult(); err != nil {
		return nil, fmt.Errorf("warm the DSE memo: %w", err)
	}
	ex := append(experiments.All(), experiments.Ablations()...)
	return &paperRunner{exhibits: ex, tables: make([]string, len(ex))}, nil
}

func (p *paperRunner) inputs() int { return 1 }

func (p *paperRunner) run(_ int, tr *tracer) error {
	// experiments.DSEResult is memoised, so the op calls the explorer
	// itself: otherwise every op after the first times a cache hit.
	sp := tr.begin("dse.explore")
	r, err := dse.Explore(workload.Suite, accel.RTX3090Baseline)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("dse.Explore: %w", err)
	}
	p.explore = r
	return runExhibits(p.exhibits, p.tables, tr, func(string) string { return "experiments.paper" })
}

func (p *paperRunner) check(int) error {
	memo, err := experiments.DSEResult()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(p.explore, memo) {
		return errors.New("uncached dse.Explore differs from experiments.DSEResult")
	}
	return sameTables(p.exhibits, p.tables, &p.ref)
}

func (p *paperRunner) counts() map[string]float64 { return nil }

// --- sweeps ----------------------------------------------------------

type sweepsRunner struct {
	exhibits []experiments.Experiment
	tables   []string
	ref      []string
}

func setUpSweeps(int64, *tracer) (runner, error) {
	if _, err := experiments.DSEResult(); err != nil {
		return nil, fmt.Errorf("warm the DSE memo: %w", err)
	}
	ex := experiments.Extensions()
	return &sweepsRunner{exhibits: ex, tables: make([]string, len(ex))}, nil
}

func (s *sweepsRunner) inputs() int { return 1 }

func (s *sweepsRunner) run(_ int, tr *tracer) error {
	return runExhibits(s.exhibits, s.tables, tr, extensionLayer)
}

func (s *sweepsRunner) check(int) error { return sameTables(s.exhibits, s.tables, &s.ref) }

func (s *sweepsRunner) counts() map[string]float64 { return nil }

// extensionLayer names the span of an extension exhibit: E7 to E12
// (the DES-backed studies) get their own, the rest share one.
func extensionLayer(id string) string {
	switch n := strings.TrimPrefix(id, "Extension "); n {
	case "E7", "E8", "E9", "E10", "E11", "E12":
		return "experiments." + n
	}
	return "experiments.ext_other"
}

// runExhibits runs the exhibits serially, one span each, and renders
// their tables into out.
func runExhibits(ex []experiments.Experiment, out []string, tr *tracer, layer func(id string) string) error {
	for i, e := range ex {
		sp := tr.begin(layer(e.ID))
		tr.note(sp, e.ID)
		t, err := e.Run()
		if err == nil {
			out[i] = t.String()
		}
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// sameTables checks every table against the first op's rendering,
// which it records on first use.
func sameTables(ex []experiments.Experiment, tables []string, ref *[]string) error {
	if *ref == nil {
		*ref = append([]string(nil), tables...)
		return nil
	}
	for i, t := range tables {
		if t != (*ref)[i] {
			return fmt.Errorf("%s: table differs from the first op's", ex[i].ID)
		}
	}
	return nil
}

// --- walker-1k -------------------------------------------------------

type walkerRunner struct {
	cfgs []netsim.Config
	refs []netsim.Stats
	// refSeconds is the median Shards=1 reference run time.
	refSeconds float64
	runners    int
	last       netsim.Stats
	reg        *obs.Registry
}

// walkerGraph is the 1024-satellite Walker: 16 planes of 64, an SµDC
// of 33 workers every other plane, 200 ms inter-plane ISLs.
func walkerGraph() (*topo.Graph, error) { return topo.Walker(16, 64, 33, 2, 200*time.Millisecond) }

// walkerInputs forks the op inputs from seed: one hour of the
// reference app over g, at the default shard count.
func walkerInputs(g *topo.Graph, seed int64) []netsim.Config {
	cfgs := make([]netsim.Config, desInputs)
	for i := range cfgs {
		c := netsim.TopologyConfig(workload.Suite[0], g)
		c.Duration = time.Hour
		c.Seed = par.ForkSeed(seed, i)
		cfgs[i] = c
	}
	return cfgs
}

func setUpWalker(seed int64, tr *tracer) (runner, error) {
	sp := tr.begin("topo.build")
	g, err := walkerGraph()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("topo.Walker: %w", err)
	}
	w := &walkerRunner{cfgs: walkerInputs(g, seed), runners: shardRunners(g.Cells())}
	var secs []float64
	for _, c := range w.cfgs {
		c.Shards = 1
		t0 := time.Now()
		st, err := netsim.Run(c)
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("Shards=1 reference run: %w", err)
		}
		w.refs = append(w.refs, st)
	}
	w.refSeconds = median(secs)
	return w, nil
}

// shardRunners mirrors netsim's runner count at the default shard
// count: one per CPU, at most one per cell.
func shardRunners(cells int) int { return min(par.DefaultWorkers(), cells) }

func (w *walkerRunner) inputs() int { return len(w.cfgs) }

func (w *walkerRunner) run(in int, tr *tracer) error {
	c := w.cfgs[in]
	w.reg = nil
	if tr != nil {
		w.reg = obs.New()
		c.Obs = w.reg
	}
	sp := tr.begin("netsim.run")
	st, err := netsim.Run(c)
	tr.end(sp)
	w.last = st
	return err
}

func (w *walkerRunner) check(in int) error {
	if err := conserved(w.last); err != nil {
		return err
	}
	if w.last != w.refs[in] {
		return fmt.Errorf("Stats differ from the Shards=1 reference for input %d", in)
	}
	return nil
}

func (w *walkerRunner) counts() map[string]float64 {
	m := desCounts(w.last, w.reg)
	s := w.last.Sync
	m["netsim.sync.rounds"] = float64(s.Rounds)
	m["netsim.sync.cell_runs"] = float64(s.CellRuns)
	m["netsim.sync.cross_msgs"] = float64(s.CrossMsgs)
	if s.Rounds > 0 {
		perRound := float64(s.CellRuns) / float64(s.Rounds)
		m["netsim.sync.cells_per_round"] = perRound
		m["netsim.sync.utilization"] = perRound / float64(w.runners)
	}
	if s.CellRuns > 0 {
		m["netsim.sync.mean_lookahead_s"] = s.LookaheadSum / float64(s.CellRuns)
	}
	return m
}

// --- mission ---------------------------------------------------------

type missionRunner struct {
	cfgs  []netsim.Config
	first []*netsim.Stats

	st      netsim.Stats
	reg     *obs.Registry
	rec     *trace.Recorder
	native  []window.Window
	derived []window.Window
	frames  []latency.Frame
	avail   float64
	jsonl   countWriter
}

// missionFaults is the BenchmarkNetsimFaulted scenario: node deaths,
// SEFI hangs and ISL outages all active.
var missionFaults = faults.Scenario{
	NodeMTTF:          8 * time.Hour,
	SEFIMTBE:          30 * time.Minute,
	SEFIRecovery:      30 * time.Second,
	ISLOutageMTBF:     30 * time.Minute,
	ISLOutageDuration: time.Minute,
}

// missionInputs forks the op inputs from seed: the 64-satellite
// reference star for 2 h under faults and full COTS degradation, with
// 10-minute windows and the default SLOs.
func missionInputs(seed int64) []netsim.Config {
	cfgs := make([]netsim.Config, desInputs)
	for i := range cfgs {
		c := netsim.DefaultConfig(workload.Suite[0])
		c.Seed = par.ForkSeed(seed, i)
		c.Faults = missionFaults
		p := degrade.COTSProfile(1)
		c.Degrade = &p
		c.Window = 10 * time.Minute
		sc := slo.DefaultConfig()
		c.SLO = &sc
		cfgs[i] = c
	}
	return cfgs
}

func setUpMission(seed int64, _ *tracer) (runner, error) {
	cfgs := missionInputs(seed)
	return &missionRunner{cfgs: cfgs, first: make([]*netsim.Stats, len(cfgs))}, nil
}

func (m *missionRunner) inputs() int { return len(m.cfgs) }

func (m *missionRunner) run(in int, tr *tracer) error {
	c := m.cfgs[in]
	m.reg, m.rec, m.native = obs.New(), trace.New(0), nil
	c.Obs, c.Trace = m.reg, m.rec
	c.OnWindow = func(w window.Window) { m.native = append(m.native, w) }
	width, horizon := c.Window.Seconds(), c.Duration.Seconds()
	workers, need := c.Workers, c.NeedWorkers
	if need == 0 {
		need = workers
	}

	sp := tr.begin("netsim.run")
	st, err := netsim.Run(c)
	tr.end(sp)
	m.st = st
	if err != nil {
		return err
	}
	m.jsonl = 0
	sp = tr.begin("obs.trace.write_jsonl")
	err = m.rec.WriteJSONL(&m.jsonl)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("WriteJSONL: %w", err)
	}
	sp = tr.begin("obs.latency.decompose")
	m.frames = latency.DecomposeAll(m.rec)
	tr.end(sp)
	sp = tr.begin("obs.latency.summarize")
	_ = latency.Summarize(m.frames)
	_ = latency.TopK(m.frames, 10)
	tr.end(sp)
	sp = tr.begin("obs.slo.from_trace")
	m.derived = slo.WindowsFromTrace(m.rec, width, horizon, workers, need)
	tr.end(sp)
	sp = tr.begin("obs.latency.availability")
	m.avail = latency.AvailabilityFromTrace(m.rec.Events(), workers, need, horizon)
	tr.end(sp)
	return nil
}

func (m *missionRunner) check(in int) error {
	st := m.st
	if err := conserved(st); err != nil {
		return err
	}
	if d := m.rec.Dropped(); d != 0 {
		return fmt.Errorf("trace recorder dropped %d events", d)
	}
	if len(m.frames) != st.FramesGenerated {
		return fmt.Errorf("trace decomposes %d frames, DES generated %d", len(m.frames), st.FramesGenerated)
	}
	if math.Abs(m.avail-st.Availability) > 1e-9 {
		return fmt.Errorf("availability from trace %.12f, DES %.12f", m.avail, st.Availability)
	}
	if len(m.derived) != len(m.native) {
		return fmt.Errorf("trace rebuilds %d windows, DES emitted %d", len(m.derived), len(m.native))
	}
	for i, n := range m.native {
		d := m.derived[i]
		if d.Index != n.Index || d.Counts != n.Counts || d.Lat != n.Lat || d.LatCount != n.LatCount {
			return fmt.Errorf("window %d: trace-rebuilt counters or latency histogram differ from the DES's", n.Index)
		}
	}
	if m.first[in] == nil {
		m.first[in] = &st
	} else if *m.first[in] != st {
		return fmt.Errorf("Stats differ from the first op on input %d", in)
	}
	return nil
}

func (m *missionRunner) counts() map[string]float64 {
	c := desCounts(m.st, m.reg)
	st := m.st
	c["faults.retried"] = float64(st.FramesRetried)
	c["faults.redispatched"] = float64(st.FramesRedispatched)
	c["faults.lost"] = float64(st.FramesLost)
	c["faults.shed"] = float64(st.FramesShed)
	if st.FramesGenerated > 0 {
		c["faults.retry_ratio"] = float64(st.FramesRetried) / float64(st.FramesGenerated)
	}
	c["faults.worker_downtime_s"] = st.WorkerDowntime.Seconds()
	c["faults.isl_downtime_s"] = st.ISLDowntime.Seconds()
	c["degrade.throttled_s"] = st.ThrottledTime.Seconds()
	c["degrade.brownout_s"] = st.BrownoutTime.Seconds()
	c["degrade.mean_rate_mult"] = st.MeanRateMult
	c["degrade.batches_deferred"] = float64(st.BatchesDeferred)
	c["obs.trace.events"] = float64(m.rec.Len())
	c["obs.trace.dropped"] = float64(m.rec.Dropped())
	c["obs.trace.jsonl_bytes"] = float64(m.jsonl)
	c["obs.latency.frames"] = float64(len(m.frames))
	alerts := 0
	for _, e := range m.rec.Events() {
		if e.Kind == trace.SLOAlert {
			alerts++
		}
	}
	c["obs.slo.alerts"] = float64(alerts)
	c["obs.window.count"] = float64(len(m.native))
	return c
}

// --- shared DES helpers ----------------------------------------------

// conserved checks frame conservation: every generated frame is
// processed, still queued, shed or lost.
func conserved(s netsim.Stats) error {
	if got := s.FramesProcessed + s.Backlog + s.FramesShed + s.FramesLost; got != s.FramesGenerated {
		return fmt.Errorf("frame conservation: processed %d + backlog %d + shed %d + lost %d = %d, generated %d",
			s.FramesProcessed, s.Backlog, s.FramesShed, s.FramesLost, got, s.FramesGenerated)
	}
	return nil
}

// desCounts returns the frame counts of s and, when reg is set, the
// run's events summed over every kind and cell.
func desCounts(s netsim.Stats, reg *obs.Registry) map[string]float64 {
	m := map[string]float64{
		"netsim.frames":             float64(s.FramesGenerated),
		"netsim.cross_shard_frames": float64(s.CrossShardFrames),
	}
	if s.FramesGenerated > 0 {
		m["netsim.frames_done_ratio"] = float64(s.FramesProcessed) / float64(s.FramesGenerated)
	}
	if reg != nil {
		var events int64
		for _, c := range reg.Snapshot().Counters {
			if strings.HasPrefix(c.Name, "events/") || strings.Contains(c.Name, "/events/") {
				events += c.Value
			}
		}
		m["netsim.events"] = float64(events)
	}
	return m
}

// countWriter discards what it is given and counts the bytes.
type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}
