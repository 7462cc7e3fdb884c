// Package scenario declares the simulation-scenario flags sudcsim and
// sudcmon share — application, star or Walker graph, faults,
// degradation, and placement — and builds the netsim.Config they
// describe, so a scenario spelled for one command runs identically
// under the other. Every float flag that becomes a time.Duration is
// range-checked: NaN, ±Inf, negative, overflowing, and sub-nanosecond
// positive values are refused with a message naming the flag and the
// accepted range.
package scenario

import (
	"flag"
	"fmt"
	"math"
	"time"

	"sudc/internal/compress"
	"sudc/internal/degrade"
	"sudc/internal/faults"
	"sudc/internal/netsim"
	"sudc/internal/placement"
	"sudc/internal/topo"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// maxPlanes bounds -planes: the Walker graph allocates per plane, and a
// plane count past this is a typo, not a constellation.
const maxPlanes = 1 << 16

// Flags holds the parsed shared scenario flags; Register documents
// each field through its flag's usage string.
type Flags struct {
	App, COTS, Placement, PlaceCompress                         string
	Satellites, Batch, Planes, SatsPerPlane, SudcEvery, Shards  int
	Spares, Retries, Shed, EdgeServers                          int
	PowerKW, ISLGbps, Filter, Hours, ISLDelayMs                 float64
	MTTFHours, SEFIMinutes, SEFIRecSec, OutageMin, OutageDurSec float64
	Throttle, EclipseFrac, DownlinkGbps, LatencyWeight          float64
	Seed                                                        int64
}

// Register declares the shared scenario flags on fs and returns the
// values they parse into.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.StringVar(&f.App, "app", "Flood Detection", "Table III application")
	fs.IntVar(&f.Satellites, "satellites", 64, "EO constellation size")
	fs.Float64Var(&f.PowerKW, "power", 4, "SµDC compute power in kW")
	fs.Float64Var(&f.ISLGbps, "isl", 30, "ISL capacity in Gbit/s")
	fs.IntVar(&f.Batch, "batch", 8, "batch size")
	fs.Float64Var(&f.Filter, "filter", 0, "edge filtering rate [0,1)")
	fs.Float64Var(&f.Hours, "hours", 2, "simulated duration in hours")
	fs.Int64Var(&f.Seed, "seed", 1, "RNG seed")
	fs.IntVar(&f.Planes, "planes", 0, "orbital planes; > 0 replaces the implicit star with a Walker topology")
	fs.IntVar(&f.SatsPerPlane, "sats-per-plane", 16, "capture satellites per plane (with -planes)")
	fs.IntVar(&f.SudcEvery, "sudc-every", 1, "SµDC placed every k-th plane; the rest relay (with -planes)")
	fs.Float64Var(&f.ISLDelayMs, "isl-delay", 200, "inter-plane ISL propagation delay in ms (with -planes)")
	fs.IntVar(&f.Shards, "shards", 0, "parallel cell shards for topology runs (0 = one per CPU)")
	fs.Float64Var(&f.MTTFHours, "mttf", 0, "mean time to permanent worker death in hours (0 = off)")
	fs.Float64Var(&f.SEFIMinutes, "sefi", 0, "mean time between SEFI hangs in minutes (0 = off)")
	fs.Float64Var(&f.SEFIRecSec, "sefi-rec", 30, "mean SEFI recovery in seconds")
	fs.Float64Var(&f.OutageMin, "outage", 0, "mean time between ISL outages in minutes (0 = off)")
	fs.Float64Var(&f.OutageDurSec, "outage-dur", 60, "mean ISL outage duration in seconds")
	fs.IntVar(&f.Spares, "spares", 0, "spare workers beyond the sized need")
	fs.IntVar(&f.Retries, "retries", 8, "ISL retry budget per frame (0 = unlimited)")
	fs.IntVar(&f.Shed, "shed", 0, "input-queue length that triggers load shedding (0 = off, -1 = shed everything)")
	fs.Float64Var(&f.Throttle, "throttle", 0, "degradation severity 0..1 (0 = off)")
	fs.StringVar(&f.COTS, "cots", "xing-cots", "COTS hardware calibration name")
	fs.Float64Var(&f.EclipseFrac, "eclipse-frac", -1, "eclipse fraction override (< 0 = orbit-derived)")
	fs.StringVar(&f.Placement, "placement", "", "placement policy: static-<tier>, greedy, queue, oracle (\"\" = off)")
	fs.Float64Var(&f.DownlinkGbps, "downlink-gbps", 0, "aggregate downlink capacity override in Gbit/s (0 = derived)")
	fs.IntVar(&f.EdgeServers, "edge-servers", 8, "ground-edge GPU pool size (with -placement)")
	fs.Float64Var(&f.LatencyWeight, "latency-weight", 1e-4, "latency price in $/frame-second (with -placement)")
	fs.StringVar(&f.PlaceCompress, "place-compress", "", "onboard compression before downlink: none, ccsds, jpeg2000, neural")
	return f
}

// Scenario is a built run: the simulator config plus the derived values
// the commands report.
type Scenario struct {
	Config netsim.Config
	App    workload.App
	// Sized is the worker count the -power budget buys (at least one).
	// Every SµDC carries Sized + Spares workers; Sized defines full
	// service on the star.
	Sized int
}

// Profile is the COTS degradation profile -throttle, -cots and
// -eclipse-frac describe.
func (f *Flags) Profile(cal degrade.Calibration) degrade.Profile {
	p := degrade.COTSProfile(f.Throttle)
	p.Cal = cal
	p.EclipseFraction = f.EclipseFrac
	return p
}

// Build assembles the scenario. The returned Config passes
// netsim.Config.Validate; every refused input is an error.
func (f *Flags) Build() (*Scenario, error) {
	cal, err := degrade.CalibrationByName(f.COTS)
	if err != nil {
		return nil, err
	}
	app, err := workload.ByName(f.App)
	if err != nil {
		return nil, err
	}
	if f.Spares < 0 {
		return nil, fmt.Errorf("negative spares %d", f.Spares)
	}
	for _, v := range []struct {
		name string
		v    float64
	}{
		{"isl", f.ISLGbps}, {"filter", f.Filter},
		{"throttle", f.Throttle}, {"eclipse-frac", f.EclipseFrac},
		{"downlink-gbps", f.DownlinkGbps}, {"latency-weight", f.LatencyWeight},
	} {
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, fmt.Errorf("-%s %v: want a finite value", v.name, v.v)
		}
	}
	if !(f.PowerKW >= 0 && f.PowerKW <= 1e6) {
		return nil, fmt.Errorf("-power %v outside the accepted range [0, 1e6] kW", f.PowerKW)
	}
	if f.Planes > maxPlanes {
		return nil, fmt.Errorf("-planes %d outside the accepted range [0, %d]", f.Planes, maxPlanes)
	}
	sized := max(int(f.PowerKW*1000/float64(app.GPUPower)), 1)
	hours, err := toDuration("hours", f.Hours, time.Hour, "hours", true)
	if err != nil {
		return nil, err
	}
	var fs faults.Scenario
	for _, d := range []struct {
		name string
		v    float64
		unit time.Duration
		word string
		dst  *time.Duration
	}{
		{"mttf", f.MTTFHours, time.Hour, "hours", &fs.NodeMTTF},
		{"sefi", f.SEFIMinutes, time.Minute, "minutes", &fs.SEFIMTBE},
		{"sefi-rec", f.SEFIRecSec, time.Second, "seconds", &fs.SEFIRecovery},
		{"outage", f.OutageMin, time.Minute, "minutes", &fs.ISLOutageMTBF},
		{"outage-dur", f.OutageDurSec, time.Second, "seconds", &fs.ISLOutageDuration},
	} {
		if *d.dst, err = toDuration(d.name, d.v, d.unit, d.word, false); err != nil {
			return nil, err
		}
	}
	// Recovery and outage durations only mean something with their
	// process enabled.
	if fs.SEFIMTBE == 0 {
		fs.SEFIRecovery = 0
	}
	if fs.ISLOutageMTBF == 0 {
		fs.ISLOutageDuration = 0
	}

	var cfg netsim.Config
	sats := f.Satellites
	if f.Planes > 0 {
		// Each SµDC plane gets the sized worker count plus the spares;
		// availability is defined by the full per-cell complement.
		delay, err := toDuration("isl-delay", f.ISLDelayMs, time.Millisecond, "ms", false)
		if err != nil {
			return nil, err
		}
		g, err := topo.Walker(f.Planes, f.SatsPerPlane, sized+f.Spares, f.SudcEvery, delay)
		if err != nil {
			return nil, err
		}
		cfg = netsim.TopologyConfig(app, g)
		cfg.Shards = f.Shards
		sats = g.Sats() / sudcCount(g)
	} else {
		cfg = netsim.DefaultConfig(app)
		cfg.Constellation.Satellites = f.Satellites
		cfg.Workers = sized + f.Spares
		cfg.NeedWorkers = sized
	}
	cfg.Constellation.FilterRate = f.Filter
	cfg.ISLRate = units.GbpsOf(f.ISLGbps)
	cfg.BatchSize = f.Batch
	cfg.Duration = hours
	cfg.Seed = f.Seed
	cfg.Faults = fs
	cfg.RetryLimit = f.Retries
	cfg.ShedThreshold = f.Shed
	if f.Throttle > 0 {
		p := f.Profile(cal)
		cfg.Degrade = &p
	}
	if f.Placement != "" {
		if cfg.Placement, err = f.placement(app, sats, sized, cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Scenario{Config: cfg, App: app, Sized: sized}, nil
}

// placement prices the placement tiers for one SµDC serving sats
// satellites with the power-sized worker pool.
func (f *Flags) placement(app workload.App, sats, workers int, cfg netsim.Config) (*placement.Config, error) {
	pol, err := placement.PolicyByName(f.Placement)
	if err != nil {
		return nil, err
	}
	alg, err := compress.ByName(f.PlaceCompress)
	if err != nil {
		return nil, err
	}
	scen := placement.DefaultScenario(app)
	scen.FramesPerMinute = cfg.Constellation.FramesPerMinute
	scen.Satellites = sats
	scen.SpacePower = units.KW(f.PowerKW)
	scen.Workers = workers
	scen.ISLRate = cfg.ISLRate
	scen.EdgeServers = f.EdgeServers
	scen.LatencyWeight = f.LatencyWeight
	if alg.Ratio > 1 {
		scen.Compression = alg
	}
	pc, err := scen.Config(pol)
	if err != nil {
		return nil, err
	}
	if f.DownlinkGbps > 0 {
		pc.DownlinkRate = units.GbpsOf(f.DownlinkGbps)
	}
	return pc, nil
}

// sudcCount is the number of SµDC nodes in g (at least one).
func sudcCount(g *topo.Graph) int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind == topo.SuDC {
			n++
		}
	}
	return max(n, 1)
}

// toDuration converts flag -name's value v, counted in unit, to a
// Duration. It accepts 0 (unless positive is set) and the values whose
// Duration is at least 1 ns and fits in int64; anything else — NaN,
// ±Inf, negative, too large, or too small to represent — is refused.
func toDuration(name string, v float64, unit time.Duration, word string, positive bool) (time.Duration, error) {
	d := v * float64(unit)
	if d >= 1 && d < math.MaxInt64 || d == 0 && !positive {
		return time.Duration(d), nil
	}
	lo, hi := 1/float64(unit), math.MaxInt64/float64(unit)
	want := fmt.Sprintf("[%.4g, %.7g] %s", lo, hi, word)
	if !positive {
		want = "0 or " + want
	}
	return 0, fmt.Errorf("-%s %v outside the accepted range %s", name, v, want)
}
