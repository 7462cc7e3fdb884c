package scenario

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"sudc/internal/netsim"
)

// build parses args through a fresh flag set and builds the scenario.
func build(args ...string) (*Scenario, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return f.Build()
}

func TestRegisterDeclaresTheSharedFlagSet(t *testing.T) {
	// The exact flag set sudcsim and sudcmon share, with the defaults
	// both commands have always used.
	want := map[string]string{
		"app": "Flood Detection", "satellites": "64", "power": "4", "isl": "30",
		"batch": "8", "filter": "0", "hours": "2", "seed": "1",
		"planes": "0", "sats-per-plane": "16", "sudc-every": "1", "isl-delay": "200", "shards": "0",
		"mttf": "0", "sefi": "0", "sefi-rec": "30", "outage": "0", "outage-dur": "60",
		"spares": "0", "retries": "8", "shed": "0",
		"throttle": "0", "cots": "xing-cots", "eclipse-frac": "-1",
		"placement": "", "downlink-gbps": "0", "edge-servers": "8", "latency-weight": "0.0001",
		"place-compress": "",
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs)
	got := map[string]string{}
	fs.VisitAll(func(fl *flag.Flag) { got[fl.Name] = fl.DefValue })
	if len(got) != len(want) || len(want) != 29 {
		t.Errorf("registered %d flags, want the 29 shared ones", len(got))
	}
	for name, def := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("flag -%s not registered", name)
		} else if g != def {
			t.Errorf("-%s default %q, want %q", name, g, def)
		}
	}
}

func TestDefaultsBuildTheReferenceStar(t *testing.T) {
	sc, err := build()
	if err != nil {
		t.Fatal(err)
	}
	c := sc.Config
	ref := netsim.DefaultConfig(sc.App)
	if c.Topology != nil || c.Constellation != ref.Constellation || c.Workers != ref.Workers ||
		c.NeedWorkers != ref.Workers || c.Duration != ref.Duration || c.ISLRate != ref.ISLRate ||
		c.Faults.Enabled() || c.Degrade != nil || c.Placement != nil {
		t.Errorf("default flags do not build the reference star: %+v", c)
	}
	if sc.Sized != ref.Workers {
		t.Errorf("sized %d workers, want %d", sc.Sized, ref.Workers)
	}
}

func TestDurationFlagsRangeChecked(t *testing.T) {
	// NaN, ±Inf, negative, overflowing, and sub-nanosecond values are
	// refused with the flag's name and accepted range, instead of
	// wrapping into a misleading downstream error.
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-hours", "1e12"}, "-hours"},
		{[]string{"-hours", "NaN"}, "-hours"},
		{[]string{"-hours", "0"}, "-hours"},
		{[]string{"-hours", "-1"}, "-hours"},
		{[]string{"-hours", "1e-15"}, "-hours"},
		{[]string{"-hours", "+Inf"}, "-hours"},
		{[]string{"-mttf", "1e300"}, "-mttf"},
		{[]string{"-mttf", "-Inf"}, "-mttf"},
		{[]string{"-sefi", "NaN"}, "-sefi"},
		{[]string{"-sefi", "10", "-sefi-rec", "-5"}, "-sefi-rec"},
		{[]string{"-sefi-rec", "1e20"}, "-sefi-rec"},
		{[]string{"-outage", "1e16"}, "-outage"},
		{[]string{"-outage", "5", "-outage-dur", "NaN"}, "-outage-dur"},
		{[]string{"-planes", "4", "-sudc-every", "2", "-isl-delay", "1e20"}, "-isl-delay"},
		{[]string{"-planes", "4", "-isl-delay", "-3"}, "-isl-delay"},
	} {
		_, err := build(tc.args...)
		if err == nil {
			t.Errorf("%v accepted", tc.args)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, tc.flag+" ") || !strings.Contains(msg, "accepted range") {
			t.Errorf("%v: error %q does not name %s and its accepted range", tc.args, msg, tc.flag)
		}
	}
	sc, err := build("-hours", "0.5", "-mttf", "2", "-sefi", "20", "-sefi-rec", "45",
		"-outage", "15", "-outage-dur", "90")
	if err != nil {
		t.Fatal(err)
	}
	f := sc.Config.Faults
	if sc.Config.Duration != 30*time.Minute || f.NodeMTTF != 2*time.Hour || f.SEFIMTBE != 20*time.Minute ||
		f.SEFIRecovery != 45*time.Second || f.ISLOutageMTBF != 15*time.Minute || f.ISLOutageDuration != 90*time.Second {
		t.Errorf("durations converted wrongly: %v %+v", sc.Config.Duration, f)
	}
}

func TestNonFiniteFloatFlagsRefused(t *testing.T) {
	for _, name := range []string{"power", "isl", "filter", "throttle", "eclipse-frac", "downlink-gbps", "latency-weight"} {
		if _, err := build("-"+name, "NaN"); err == nil || !strings.HasPrefix(err.Error(), "-"+name+" ") {
			t.Errorf("-%s NaN: got %v, want an error naming the flag", name, err)
		}
	}
}

func TestPlanesPlacementSizedFromGraph(t *testing.T) {
	// In -planes mode the simulator ignores -satellites, so the
	// placement scenario must too: it is sized per SµDC from the graph.
	args := []string{"-planes", "4", "-sats-per-plane", "16", "-hours", "0.5", "-placement", "greedy"}
	a, err := build(append(args, "-satellites", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(append(args, "-satellites", "64")...)
	if err != nil {
		t.Fatal(err)
	}
	if *a.Config.Placement != *b.Config.Placement {
		t.Errorf("-satellites changed the -planes placement model:\n%+v\n%+v", a.Config.Placement, b.Config.Placement)
	}
	// Four single-plane SµDCs of 16 satellites each price like a
	// 16-satellite star.
	star, err := build("-satellites", "16", "-hours", "0.5", "-placement", "greedy")
	if err != nil {
		t.Fatal(err)
	}
	if a.Config.Placement.Model != star.Config.Placement.Model {
		t.Error("per-SµDC placement model differs from the equivalent 16-satellite star")
	}
}

// FuzzScenarioFlags throws arbitrary argument vectors at the binder.
// Every vector must either fail to parse, be refused by Build, or yield
// a config netsim accepts; Build must never panic, and a finite
// positive duration flag must never become a non-positive Duration.
func FuzzScenarioFlags(f *testing.F) {
	for _, seed := range []string{
		"",
		"-hours 0.5 -mttf 2 -sefi 20 -outage 15 -seed 7",
		"-planes 4 -sats-per-plane 16 -sudc-every 2 -isl-delay 150 -placement greedy",
		"-throttle 0.8 -cots integrated-panel -eclipse-frac 0.4 -shed 40",
		"-hours 1e12 -mttf 1e300 -sefi NaN -outage-dur -1",
		"-power 0.05 -satellites 2 -spares 3 -retries 0 -placement static-edge -place-compress neural",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fl := Register(fs)
		if fs.Parse(strings.Fields(line)) != nil {
			return
		}
		sc, err := fl.Build()
		if err != nil {
			return
		}
		c := sc.Config
		if err := c.Validate(); err != nil {
			t.Fatalf("Build returned a config Validate refuses: %v", err)
		}
		for _, d := range []struct {
			name string
			v    float64
			got  time.Duration
			used bool
		}{
			{"hours", fl.Hours, c.Duration, true},
			{"mttf", fl.MTTFHours, c.Faults.NodeMTTF, true},
			{"sefi", fl.SEFIMinutes, c.Faults.SEFIMTBE, true},
			{"sefi-rec", fl.SEFIRecSec, c.Faults.SEFIRecovery, c.Faults.SEFIMTBE > 0},
			{"outage", fl.OutageMin, c.Faults.ISLOutageMTBF, true},
			{"outage-dur", fl.OutageDurSec, c.Faults.ISLOutageDuration, c.Faults.ISLOutageMTBF > 0},
		} {
			if d.used && d.v > 0 && !math.IsInf(d.v, 1) && d.got <= 0 {
				t.Fatalf("-%s %v became Duration %v", d.name, d.v, d.got)
			}
		}
		if g := c.Topology; g != nil && fl.ISLDelayMs > 0 {
			if d, ok := g.MinCrossDelay(); ok && d <= 0 {
				t.Fatalf("-isl-delay %v became cross-plane delay %v", fl.ISLDelayMs, d)
			}
		}
	})
}
