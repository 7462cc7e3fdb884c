// Command sudcbench is the sudc benchmark. One run sets up one named
// workload, times its ops for a fixed wall-clock budget, checks every
// op's outputs, and prints its metrics as the last line of standard
// output:
//
//	sudcbench --workload <paper|sweeps|walker-1k|mission> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of untraced ops.
// With --trace 1 it alternates untraced and traced ops, records a span
// around each call the benchmark makes into a layer, turns on the
// program's own counters, writes the spans as JSON lines, and reports
// the per-layer metrics plus the tracing overhead. README.md lists the
// workloads, the metrics, and which layer metric should move which
// end-to-end metric.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"sudc/internal/obs"
	"sudc/internal/par"
)

// setupSamples is how many set-ups an untraced run times, each in a
// fresh process except the run's own; setup_s is their median. A
// traced run, which does not report setup_s, sets up once.
const setupSamples = 3

// maxFailures caps the failure messages a result lists.
const maxFailures = 5

type metricDef struct{ name, unit string }

// endToEnd are the metrics of --trace 0, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"op_s_tail", "s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of --trace 1, in BENCHMARK.json order. A
// metric a workload never exercises reads 0. Names ending in _s are
// median self times per traced op.
var perLayer = []metricDef{
	{"bench.trace_overhead", "ratio"},
	{"dse.explore_s", "s"},
	{"dse.designs", "count"},
	{"dse.layer_energies", "count"},
	{"dse.ns_per_layer_energy", "ns"},
	{"dse.alloc_mb", "MB"},
	{"experiments.paper_s", "s"},
	{"experiments.E7_s", "s"},
	{"experiments.E8_s", "s"},
	{"experiments.E9_s", "s"},
	{"experiments.E10_s", "s"},
	{"experiments.E11_s", "s"},
	{"experiments.E12_s", "s"},
	{"experiments.ext_other_s", "s"},
	{"par.cpu_per_wall", "ratio"},
	{"par.runs", "count"},
	{"par.items", "count"},
	{"netsim.run_s", "s"},
	{"netsim.events", "count"},
	{"netsim.ns_per_event", "ns"},
	{"netsim.frames", "count"},
	{"netsim.frames_done_ratio", "ratio"},
	{"netsim.cross_shard_frames", "count"},
	{"netsim.sim_frames_per_s", "1/s"},
	{"netsim.sync.rounds", "count"},
	{"netsim.sync.cell_runs", "count"},
	{"netsim.sync.cross_msgs", "count"},
	{"netsim.sync.cells_per_round", "ratio"},
	{"netsim.sync.utilization", "ratio"},
	{"netsim.sync.mean_lookahead_s", "s"},
	{"netsim.sync.us_per_round", "us"},
	{"netsim.sync.speedup_vs_shards1", "ratio"},
	{"topo.build_s", "s"},
	{"faults.retried", "count"},
	{"faults.redispatched", "count"},
	{"faults.lost", "count"},
	{"faults.shed", "count"},
	{"faults.retry_ratio", "ratio"},
	{"faults.worker_downtime_s", "s"},
	{"faults.isl_downtime_s", "s"},
	{"degrade.throttled_s", "s"},
	{"degrade.brownout_s", "s"},
	{"degrade.mean_rate_mult", "ratio"},
	{"degrade.batches_deferred", "count"},
	{"obs.trace.events", "count"},
	{"obs.trace.dropped", "count"},
	{"obs.trace.jsonl_bytes", "bytes"},
	{"obs.trace.write_jsonl_s", "s"},
	{"obs.latency.decompose_s", "s"},
	{"obs.latency.summarize_s", "s"},
	{"obs.latency.availability_s", "s"},
	{"obs.latency.frames", "count"},
	{"obs.slo.from_trace_s", "s"},
	{"obs.slo.alerts", "count"},
	{"obs.window.count", "count"},
}

// registryCounters maps the program's own counters, read from the
// registry a traced op installs, to per-layer metric names.
var registryCounters = map[string]string{
	"dse/designs_evaluated": "dse.designs",
	"dse/layer_energies":    "dse.layer_energies",
	"par/runs":              "par.runs",
	"par/items":             "par.items",
}

// spanAllocs maps span names to per-layer metrics of the heap their
// spans allocate, in MB.
var spanAllocs = map[string]string{
	"dse.explore": "dse.alloc_mb",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance says what produced a result.
type provenance struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Revision    string `json:"revision"`
	VCSModified string `json:"vcs_modified"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NProc       int    `json:"nproc"`
	CPU         string `json:"cpu"`
	GoVersion   string `json:"go_version"`
}

// detail is the line before the result: provenance, load shape, and
// what the result's metrics cannot hold.
type detail struct {
	Provenance       provenance `json:"provenance"`
	Trace            bool       `json:"trace"`
	SeedVariesInputs bool       `json:"seed_varies_inputs"`
	OpInputs         int        `json:"op_inputs"`
	// Ops counts timed ops (untraced ones under --trace 1); the
	// warm-up op is in set-up and in Attempted only.
	Ops            int `json:"ops"`
	TracedOps      int `json:"traced_ops,omitempty"`
	TailPercentile int `json:"tail_percentile,omitempty"`
	// OpSeconds are the timed ops' wall times in run order.
	OpSeconds    []float64 `json:"op_seconds"`
	SetupSamples []float64 `json:"setup_samples_s"`
	FailRatio    float64   `json:"fail_ratio"`
	Failures     []string  `json:"failures,omitempty"`
	// SimFramesPerS is simulated frames per host second of untraced
	// ops, on the DES workloads.
	SimFramesPerS float64 `json:"sim_frames_per_s,omitempty"`
	// Counters are the exact work counts per op, averaged over the op
	// inputs; a speed-only change must leave them, and their digest,
	// identical for the same seed.
	Counters       map[string]float64 `json:"counters,omitempty"`
	CountersSHA256 string             `json:"counters_sha256,omitempty"`
	SpansFile      string             `json:"spans_file,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sudcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper, sweeps, walker-1k or mission")
	seed := fs.Int64("seed", 1, "seed the DES workloads fork their op inputs from")
	seconds := fs.Int("seconds", 10, "wall-clock seconds of timed ops")
	traceMode := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	setupOnly := fs.Bool("setup-only", false, "time one set-up, print it, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "sudcbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "sudcbench: --seconds must be at least 1")
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintln(stderr, "sudcbench: --trace must be 0 or 1")
		return 2
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !validName(d.name) || !validUnit(d.unit) {
				fmt.Fprintf(stderr, "sudcbench: bad metric %q (%q)\n", d.name, d.unit)
				return 2
			}
		}
	}
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		fmt.Fprintf(stderr, "sudcbench: GOMAXPROCS %d exceeds the %d CPUs available; refusing an oversubscribed run\n", procs, cpus)
		return 2
	}

	if *setupOnly {
		s, err := setUp(w, *seed, nil)
		if err != nil {
			fmt.Fprintln(stderr, "sudcbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "{\"setup_s\": %v}\n", s.secs)
		return 0
	}

	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second}
	var (
		res result
		det detail
		err error
	)
	if *traceMode == 1 {
		res, det, err = b.traced(fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, *seed))
	} else {
		res, det, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "sudcbench:", err)
		return 1
	}
	for _, f := range det.Failures {
		fmt.Fprintln(stderr, "sudcbench: check failed:", f)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(det); err != nil {
		fmt.Fprintln(stderr, "sudcbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "sudcbench:", err)
		return 1
	}
	return 0
}

// bench is one benchmark run.
type bench struct {
	w      workloadDef
	seed   int64
	budget time.Duration

	attempted, failed int
	failures          []string
}

// setup is one timed set-up.
type setup struct {
	secs float64
	r    runner
	// warm is the warm-up op's run or check error.
	warm error
}

// setUp builds the workload and runs its checked warm-up op, which
// fills the pooled simulator arenas and memos.
func setUp(w workloadDef, seed int64, tr *tracer) (setup, error) {
	t0 := time.Now()
	r, err := w.setUp(seed, tr)
	if err != nil {
		return setup{}, fmt.Errorf("set up %s: %w", w.name, err)
	}
	warm := r.run(0, nil)
	if warm == nil {
		warm = r.check(0)
	}
	return setup{secs: time.Since(t0).Seconds(), r: r, warm: warm}, nil
}

// setUpAll times n set-ups: all but one in fresh child processes,
// then the run's own, whose runner it returns.
func (b *bench) setUpAll(n int, tr *tracer) ([]float64, runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var samples []float64
	for i := 1; i < n; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", b.w.name, "--seed", fmt.Sprint(b.seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up sample %d: %w", i, err)
		}
		var s struct {
			SetupS *float64 `json:"setup_s"`
		}
		if err := json.Unmarshal(lastLine(out), &s); err != nil || s.SetupS == nil {
			return nil, nil, fmt.Errorf("set-up sample %d: unreadable output %q", i, out)
		}
		samples = append(samples, *s.SetupS)
	}
	s, err := setUp(b.w, b.seed, tr)
	if err != nil {
		return nil, nil, err
	}
	b.tally(-1, s.warm)
	return append(samples, s.secs), s.r, nil
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// tally counts one attempted op and its failure, if any.
func (b *bench) tally(op int, err error) {
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	if len(b.failures) < maxFailures {
		label := "warm-up op"
		if op >= 0 {
			label = fmt.Sprintf("op %d", op)
		}
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", label, err))
	}
}

// untraced times ops with every probe off and reports the end-to-end
// metrics. Each op starts from a collected heap, so no op pays for the
// garbage of the one before it, and with the resident high-water mark
// reset, so each op reports its own peak.
func (b *bench) untraced() (result, detail, error) {
	setupS, r, err := b.setUpAll(setupSamples, nil)
	if err != nil {
		return result{}, detail{}, err
	}
	var walls, allocs, rss []float64
	var frames float64
	start := time.Now()
	for i := 0; time.Since(start) < b.budget; i++ {
		in := i % r.inputs()
		runtime.GC()
		resetPeakRSS()
		a0 := heapAllocBytes()
		t0 := time.Now()
		err := r.run(in, nil)
		d := time.Since(t0)
		allocs = append(allocs, float64(heapAllocBytes()-a0))
		rss = append(rss, peakRSSMB())
		walls = append(walls, d.Seconds())
		if err == nil {
			err = r.check(in)
		}
		b.tally(i, err)
		frames += r.counts()["netsim.frames"]
	}
	tailV, tailP := tail(walls)
	m := map[string]float64{
		"setup_s":         median(setupS),
		"op_s_p50":        median(walls),
		"op_s_tail":       tailV,
		"alloc_mb_per_op": sum(allocs) / float64(len(allocs)) / 1e6,
		"peak_rss_mb":     median(rss),
	}
	det := b.detail(r, setupS, walls)
	det.TailPercentile = tailP
	det.SimFramesPerS = ratio(frames, sum(walls))
	return b.result(endToEnd, m), det, nil
}

// traced alternates untraced and traced ops on the same input, the
// order swapping each pair, until the budget is spent and every input
// has had a traced op. It reports the per-layer metrics.
func (b *bench) traced(spansPath string) (result, detail, error) {
	tr := newTracer()
	setupS, r, err := b.setUpAll(1, tr)
	if err != nil {
		return result{}, detail{}, err
	}
	var (
		walls, tracedWalls, cpuPerWall []float64
		frames                         float64
		counts                         = make([]map[string]float64, r.inputs())
		samples                        = map[string][]float64{}
		op                             int
	)
	untracedOp := func(in int) error {
		c0, t0 := cpuTime(), time.Now()
		err := r.run(in, nil)
		d := time.Since(t0)
		walls = append(walls, d.Seconds())
		cpuPerWall = append(cpuPerWall, ratio((cpuTime()-c0).Seconds(), d.Seconds()))
		frames += r.counts()["netsim.frames"]
		if err != nil {
			return err
		}
		return r.check(in)
	}
	tracedOp := func(in int) error {
		reg := obs.New()
		obs.SetGlobal(reg)
		par.SetObserver(obs.NewEngineMetrics(reg.Scope("par")))
		tr.op = op
		root := tr.begin("op")
		t0 := time.Now()
		err := r.run(in, tr)
		tracedWalls = append(tracedWalls, time.Since(t0).Seconds())
		tr.end(root)
		obs.SetGlobal(nil)
		par.SetObserver(nil)
		if err == nil {
			err = r.check(in)
		}
		if err == nil {
			err = pinCounts(&counts[in], opCounts(r, reg))
		}
		return err
	}
	start := time.Now()
	for p := 0; p < r.inputs() || time.Since(start) < b.budget; p++ {
		in := p % r.inputs()
		pair := [2]func(int) error{untracedOp, tracedOp}
		if p%2 == 1 {
			pair[0], pair[1] = pair[1], pair[0]
		}
		for _, f := range pair {
			runtime.GC()
			b.tally(op, f(in))
			op++
		}
	}
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return result{}, detail{}, fmt.Errorf("write spans: %w", err)
	}

	for _, s := range tr.spans {
		if name, ok := spanAllocs[s.Name]; ok {
			samples[name] = append(samples[name], float64(s.Alloc)/1e6)
		}
	}
	m := map[string]float64{}
	for _, names := range selfTimes(tr.spans) {
		for n, d := range names {
			if n != "op" {
				samples[n+"_s"] = append(samples[n+"_s"], d.Seconds())
			}
		}
	}
	for k, xs := range samples {
		m[k] = median(xs)
	}
	mean := meanCounts(counts)
	for k, v := range mean {
		m[k] = v
	}
	untracedP50 := median(walls)
	m["bench.trace_overhead"] = ratio(median(tracedWalls), untracedP50)
	m["par.cpu_per_wall"] = median(cpuPerWall)
	m["dse.ns_per_layer_energy"] = ratio(m["dse.explore_s"]*1e9, m["dse.layer_energies"])
	m["netsim.ns_per_event"] = ratio(m["netsim.run_s"]*1e9, m["netsim.events"])
	m["netsim.sync.us_per_round"] = ratio(m["netsim.run_s"]*1e6, m["netsim.sync.rounds"])
	m["netsim.sim_frames_per_s"] = ratio(frames, sum(walls))
	if wr, ok := r.(*walkerRunner); ok {
		m["netsim.sync.speedup_vs_shards1"] = ratio(wr.refSeconds, untracedP50)
	}

	det := b.detail(r, setupS, walls)
	det.Trace = true
	det.TracedOps = len(tracedWalls)
	det.SimFramesPerS = m["netsim.sim_frames_per_s"]
	det.Counters = mean
	det.CountersSHA256 = digest(mean)
	det.SpansFile = spansPath
	for k := range m {
		if !declared(perLayer, k) {
			return result{}, detail{}, fmt.Errorf("metric %q is not a declared per-layer metric", k)
		}
	}
	return b.result(perLayer, m), det, nil
}

// opCounts merges the runner's exact counts with the program's own
// counters from a traced op's registry.
func opCounts(r runner, reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.counts() {
		out[k] = v
	}
	for _, c := range reg.Snapshot().Counters {
		if name, ok := registryCounters[c.Name]; ok {
			out[name] = float64(c.Value)
		}
	}
	return out
}

// pinCounts records an input's exact counts on its first traced op and
// fails any later op on the input whose counts differ.
func pinCounts(pinned *map[string]float64, got map[string]float64) error {
	if *pinned == nil {
		*pinned = got
		return nil
	}
	for _, k := range sortedKeys(got, *pinned) {
		if got[k] != (*pinned)[k] {
			return fmt.Errorf("work count %s = %v, the input's first traced op counted %v", k, got[k], (*pinned)[k])
		}
	}
	return nil
}

// meanCounts averages the per-input counts over the inputs.
func meanCounts(per []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range per {
		for k, v := range m {
			out[k] += v / float64(len(per))
		}
	}
	return out
}

func sortedKeys(ms ...map[string]float64) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// digest is the SHA-256 of the counts' JSON (keys sorted).
func digest(m map[string]float64) string {
	j, err := json.Marshal(m)
	if err != nil {
		return ""
	}
	h := sha256.Sum256(j)
	return hex.EncodeToString(h[:])
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// result fills every declared metric, absent ones as 0.
func (b *bench) result(defs []metricDef, m map[string]float64) result {
	out := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}

func (b *bench) detail(r runner, setupS, walls []float64) detail {
	return detail{
		Provenance:       newProvenance(b.w.name, b.seed),
		SeedVariesInputs: b.w.seeded,
		OpInputs:         r.inputs(),
		Ops:              len(walls),
		OpSeconds:        walls,
		SetupSamples:     setupS,
		FailRatio:        ratio(float64(b.failed), float64(b.attempted)),
		Failures:         b.failures,
	}
}

func newProvenance(workload string, seed int64) provenance {
	p := provenance{
		Workload:    workload,
		Seed:        seed,
		Revision:    "unknown",
		VCSModified: "unknown",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		CPU:         cpuModel(),
		GoVersion:   runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value
			}
		}
	}
	return p
}

// cpuModel is the first "model name" in /proc/cpuinfo, or GOARCH.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
