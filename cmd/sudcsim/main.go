// Command sudcsim runs the discrete-event simulation of the paper's
// Figure 14 pipeline: EO satellites → FSO inter-satellite link → batcher →
// GPU workers → insight analyzer, and reports whether the SµDC keeps up.
//
// Usage:
//
//	sudcsim [flags]
//
// The scenario flags below (all but -shard-stats, the degradation
// policies, -horizon-years and observability) are shared with sudcmon
// through package scenario.
//
//	-app name        Table III application (default "Flood Detection")
//	-satellites n    EO constellation size (default 64)
//	-power kW        SµDC compute power (default 4)
//	-isl gbps        ISL capacity (default 30)
//	-batch n         batch size (default 8)
//	-filter f        edge filtering rate 0..1 (default 0)
//	-hours h         simulated duration (default 2)
//	-seed n          RNG seed (default 1)
//
// Explicit constellation topology (replaces the implicit single-SµDC
// star with a Walker-style multi-plane graph, simulated in parallel
// cell shards with conservative cross-cell synchronization):
//
//	-planes n        orbital planes; > 0 switches to topology mode
//	-sats-per-plane n  capture satellites per plane (default 16)
//	-sudc-every k    SµDC in every k-th plane; the rest relay around the
//	                 inter-plane ring (default 1)
//	-isl-delay ms    inter-plane ISL propagation delay (default 200)
//	-shards n        parallel cell shards, 0 = one per CPU; any value
//	                 yields byte-identical results
//	-shard-stats     print the synchronizer summary line: windows run,
//	                 mean active cells and cross-cell messages per
//	                 window, and the mean proven lookahead per cell run
//
// Fault injection and degraded-mode operation:
//
//	-mttf h          mean time to permanent worker death in hours (0 = off)
//	-sefi m          mean time between transient SEFI hangs in minutes (0 = off)
//	-sefi-rec s      mean SEFI watchdog recovery in seconds (default 30)
//	-outage m        mean time between ISL outages in minutes (0 = off)
//	-outage-dur s    mean ISL outage duration in seconds (default 60)
//	-spares n        spare workers beyond the sized need (default 0)
//	-retries n       ISL retry budget per frame, 0 = unlimited (default 8)
//	-shed n          input-queue length that triggers load shedding
//	                 (0 = off, -1 = shed every queued frame)
//
// Environment-coupled degradation (COTS-calibrated thermal throttling,
// eclipse power brownouts; see internal/degrade):
//
//	-throttle s      degradation severity 0..1; > 0 layers the COTS
//	                 schedule over the run (0 = off)
//	-cots name       hardware calibration: xing-cots, integrated-panel
//	                 (default xing-cots)
//	-eclipse-frac f  eclipse fraction override; < 0 derives it from the
//	                 default EO orbit (default -1)
//	-throttle-shed   scale the shed threshold down with the active
//	                 throttle multiplier
//	-defer-eclipse   defer partial-batch timeout dispatches past the
//	                 eclipse window
//	-horizon-years y run the compressed-horizon survivability program
//	                 instead of the DES (fleet lifecycle × degradation)
//
// Compute placement ("when to compute in space"; see
// internal/placement): each frame is routed across four tiers —
// onboard flight computer, orbital SµDC, ground-station edge,
// terrestrial cloud — under a latency/cost objective:
//
//	-placement p     routing policy: static-onboard, static-space,
//	                 static-edge, static-cloud, greedy, queue, oracle
//	                 ("" = off, the legacy all-space pipeline)
//	-downlink-gbps f aggregate downlink capacity override in Gbit/s
//	                 (0 = derived from the default ground network)
//	-edge-servers n  ground-edge GPU pool size (default 8)
//	-latency-weight w  latency price in $/frame-second (default 1e-4)
//	-place-compress a  onboard compression before downlink: none, ccsds,
//	                 jpeg2000, neural (default none)
//
// Observability (-metrics, -trace, -trace-out and -pprof are shared
// with sudctool and experiments through package obsflag):
//
//	-metrics         print the run's metric snapshot (counters, queue-depth /
//	                 availability / retry time series, latency histogram,
//	                 span wall times)
//	-window m        tumbling telemetry window in minutes (0 = off; -slo
//	                 and -watch default it to 10). Every run seals its
//	                 windows when it ends, merging the cells' fragments in
//	                 (window, cell) order, so the stream is byte-identical
//	                 for any -shards value
//	-slo             evaluate the mission SLOs (availability, frame p99,
//	                 loss rate, $/frame vs the oracle floor) per window
//	                 and print the burn-rate report; alerts also land in
//	                 -trace-out recordings with attributed causes
//	-watch           print one line per window, in index order, once the
//	                 run has sealed them
//	-trace           stream span trace lines as stages complete
//	-trace-out file  write the frame-lineage flight recording (per-frame
//	                 lifecycle + fault events) as JSONL; analyze with sudcmon
//	-pprof addr      serve net/http/pprof and /metrics on addr
//	                 (e.g. localhost:6060)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sudc/internal/degrade"
	"sudc/internal/netsim"
	"sudc/internal/obs/slo"
	"sudc/internal/obs/window"
	"sudc/internal/obsflag"
	"sudc/internal/placement"
	"sudc/internal/scenario"
	"sudc/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sudcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sudcsim", flag.ContinueOnError)
	fs.SetOutput(out)
	sf := scenario.Register(fs)
	shardStats := fs.Bool("shard-stats", false, "print the sharded synchronizer summary (with -planes)")
	throttleShed := fs.Bool("throttle-shed", false, "scale the shed threshold with the throttle multiplier")
	deferEclipse := fs.Bool("defer-eclipse", false, "defer partial-batch timeouts past the eclipse window")
	horizonYears := fs.Float64("horizon-years", 0, "run the compressed-horizon survivability program over this many years")
	windowMin := fs.Float64("window", 0, "tumbling telemetry window in minutes (0 = off)")
	sloOn := fs.Bool("slo", false, "evaluate mission SLOs per window and print the burn-rate report")
	watch := fs.Bool("watch", false, "print one line per telemetry window once the run has sealed them")
	of := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := of.Start(out); err != nil {
		return err
	}
	reg := of.Reg

	cal, err := degrade.CalibrationByName(sf.COTS)
	if err != nil {
		return err
	}
	if *horizonYears > 0 {
		return runSurvivability(out, sf.Profile(cal), *horizonYears, sf.Seed)
	}

	sc, err := sf.Build()
	if err != nil {
		return err
	}
	cfg, app, workers := sc.Config, sc.App, sc.Sized
	if *throttleShed || *deferEclipse {
		if cfg.Degrade == nil {
			p := sf.Profile(cal)
			cfg.Degrade = &p
		}
		cfg.ThrottleShed = *throttleShed
		cfg.DeferInEclipse = *deferEclipse
	}
	cfg.Obs = reg.Scope("netsim")
	cfg.Trace = of.Rec

	if *windowMin < 0 {
		return fmt.Errorf("sudcsim: -window must be non-negative, got %v", *windowMin)
	}
	var wins []window.Window
	var sloCfg slo.Config
	if *sloOn || *watch || *windowMin > 0 {
		if *windowMin == 0 {
			*windowMin = 10
		}
		cfg.Window = time.Duration(*windowMin * float64(time.Minute))
		cfg.OnWindow = func(w window.Window) {
			wins = append(wins, w)
			if *watch {
				fmt.Fprintf(out, "w%03d [%6.1fm,%6.1fm) gen %5d done %5d avail %6.2f%% p99 %6.1fs loss %5.2f%%\n",
					w.Index, w.Start/60, w.End/60,
					w.Counts[window.CntGenerated], w.Counts[window.CntProcessed],
					100*w.Availability(), w.LatQuantile(0.99), 100*w.LossRate())
			}
		}
		if *sloOn {
			sloCfg = slo.DefaultConfig()
			cfg.SLO = &sloCfg
		}
	}

	sp := reg.StartSpan("sudcsim/run")
	sp.SetSim(cfg.Duration.Seconds())
	s, err := netsim.Run(cfg)
	sp.End()
	if err != nil {
		return err
	}

	if sf.Planes > 0 {
		fmt.Fprintf(out, "%s: %d planes × %d satellites → SµDC every %d planes (%d × %v workers each), %v ISL, batch %d\n\n",
			app.Name, sf.Planes, sf.SatsPerPlane, sf.SudcEvery, workers+sf.Spares, app.GPUPower, cfg.ISLRate, sf.Batch)
	} else {
		fmt.Fprintf(out, "%s: %d satellites → %.1f kW SµDC (%d × %v workers), %v ISL, batch %d\n\n",
			app.Name, sf.Satellites, sf.PowerKW, cfg.Workers, app.GPUPower, cfg.ISLRate, sf.Batch)
	}
	fmt.Fprintf(out, "  frames generated     %d\n", s.FramesGenerated)
	fmt.Fprintf(out, "  frames processed     %d\n", s.FramesProcessed)
	fmt.Fprintf(out, "  insights downlinked  %d\n", s.InsightsDownlinked)
	fmt.Fprintf(out, "  backlog              %d\n", s.Backlog)
	fmt.Fprintf(out, "  mean latency         %v (p95 %v)\n",
		s.MeanLatency.Truncate(time.Millisecond), s.P95Latency.Truncate(time.Millisecond))
	fmt.Fprintf(out, "  ISL utilization      %.1f%%\n", 100*s.ISLUtilization)
	fmt.Fprintf(out, "  worker utilization   %.1f%%\n", 100*s.WorkerUtilization)
	fmt.Fprintf(out, "  compute energy       %.1f kWh\n", s.ComputeEnergy.WattHours()/1e3)
	if sf.Planes > 0 {
		fmt.Fprintf(out, "  cross-shard frames   %d\n", s.CrossShardFrames)
	}
	if *shardStats && sf.Planes > 0 {
		sy := s.Sync
		rounds := sy.Rounds
		if rounds < 1 {
			rounds = 1
		}
		runs := sy.CellRuns
		if runs < 1 {
			runs = 1
		}
		fmt.Fprintf(out, "  sync: %d windows, %.1f active cells/window, %.1f msgs/window, %.3fs mean lookahead\n",
			sy.Rounds, float64(sy.CellRuns)/float64(rounds),
			float64(sy.CrossMsgs)/float64(rounds), sy.LookaheadSum/float64(runs))
	}
	if cfg.Faults.Enabled() || sf.Spares > 0 {
		if sf.Planes > 0 {
			fmt.Fprintf(out, "\n  fault injection (%d workers per SµDC)\n", workers+sf.Spares)
		} else {
			fmt.Fprintf(out, "\n  fault injection (%d needed + %d spare workers)\n", cfg.NeedWorkers, sf.Spares)
		}
		fmt.Fprintf(out, "  availability         %.2f%%\n", 100*s.Availability)
		fmt.Fprintf(out, "  degraded time        %.1f%%\n", 100*s.DegradedFraction)
		fmt.Fprintf(out, "  worker downtime      %v\n", s.WorkerDowntime.Truncate(time.Second))
		fmt.Fprintf(out, "  ISL downtime         %v\n", s.ISLDowntime.Truncate(time.Second))
		fmt.Fprintf(out, "  frames retried       %d\n", s.FramesRetried)
		fmt.Fprintf(out, "  frames re-dispatched %d\n", s.FramesRedispatched)
		fmt.Fprintf(out, "  frames shed          %d\n", s.FramesShed)
		fmt.Fprintf(out, "  frames lost          %d\n", s.FramesLost)
	}
	if cfg.Degrade != nil {
		fmt.Fprintf(out, "\n  degradation (%s, severity %.2f)\n", cal.Name, sf.Throttle)
		fmt.Fprintf(out, "  mean rate mult       %.3f\n", s.MeanRateMult)
		fmt.Fprintf(out, "  throttled time       %v (%.1f%%)\n",
			s.ThrottledTime.Truncate(time.Second), 100*s.ThrottledTime.Seconds()/cfg.Duration.Seconds())
		fmt.Fprintf(out, "  brownout time        %v (%.1f%%)\n",
			s.BrownoutTime.Truncate(time.Second), 100*s.BrownoutTime.Seconds()/cfg.Duration.Seconds())
		fmt.Fprintf(out, "  batches deferred     %d\n", s.BatchesDeferred)
	}
	if cfg.Placement != nil {
		m := cfg.Placement.Model
		fmt.Fprintf(out, "\n  placement (%s policy, downlink %v, latency weight $%g/frame-s)\n",
			sf.Placement, cfg.Placement.DownlinkRate, sf.LatencyWeight)
		fmt.Fprintf(out, "  %-12s %8s %12s %12s %12s\n", "tier", "frames", "mean", "p99", "$/frame")
		for t := placement.Tier(0); t < placement.NumTiers; t++ {
			fmt.Fprintf(out, "  %-12s %8d %12v %12v %12.4g\n", t.String(), s.TierFrames[t],
				s.TierMeanLatency[t].Truncate(time.Millisecond),
				s.TierP99Latency[t].Truncate(time.Millisecond),
				m.Tiers[t].DollarsPerFrame)
		}
		fmt.Fprintf(out, "  realized mean cost   $%.4g/frame (oracle floor $%.4g)\n",
			s.PlacedMeanCost, s.OracleMeanCost)
	}
	if s.KeptUp {
		fmt.Fprintln(out, "\n  → the SµDC keeps up with the constellation")
	} else {
		fmt.Fprintln(out, "\n  → UNDERSIZED: the SµDC falls behind")
	}
	if *sloOn {
		if cfg.Placement != nil {
			sloCfg.CostFloor = cfg.Placement.Model.OracleCost()
		}
		fmt.Fprintln(out)
		slo.WriteReport(out, sloCfg, wins, slo.Run(sloCfg, wins))
	}
	return of.Finish(out)
}

// runSurvivability executes the compressed-horizon program: the
// degradation schedule collapsed to its orbit-averaged capacity factor
// and replayed through the fleet-maintenance lifecycle.
func runSurvivability(out io.Writer, p degrade.Profile, years float64, seed int64) error {
	cfg := degrade.DefaultSurvivalConfig(p.Severity)
	cfg.Profile = p
	cfg.Policy.Horizon = units.Years(years)
	cfg.Seed = seed
	r, err := degrade.Survive(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "survivability: %.0f-year program, %d+%d satellites, %s at severity %.2f\n\n",
		years, cfg.Policy.Target, cfg.Policy.Spares, p.Cal.Name, p.Severity)
	fmt.Fprintf(out, "  capacity factor      %.3f\n", r.CapacityFactor)
	fmt.Fprintf(out, "  units built          %.1f\n", r.UnitsBuilt)
	fmt.Fprintf(out, "  head-count avail     %.1f%%\n", 100*r.Availability)
	fmt.Fprintf(out, "  capacity avail       %.1f%%\n", 100*r.CapacityAvailability)
	fmt.Fprintf(out, "  mean fleet capacity  %.2f\n\n", r.MeanCapacity)
	fmt.Fprintln(out, "  year  mean operational  availability  mean capacity")
	for _, y := range r.Years {
		fmt.Fprintf(out, "  %4d  %16.2f  %11.1f%%  %13.2f\n",
			y.Year, y.MeanOperational, 100*y.Availability, y.MeanCapacity)
	}
	return nil
}
