package slo

import (
	"strings"
	"testing"

	"sudc/internal/obs/window"
)

// mkWindow builds one synthetic merged window: avail in [0,1] over a
// 600 s span with weight 4, gen/done frame counts, and one latency
// sample per done frame at lat seconds.
func mkWindow(index int, avail float64, gen, done int64, lat float64) window.Window {
	w := window.Window{Index: index, Start: float64(index) * 600, End: float64(index+1) * 600}
	w.Cells = 1
	w.Sec = 600
	w.WeightSec = 600 * 4
	w.UpSec = avail * w.WeightSec
	w.Counts[window.CntGenerated] = gen
	w.Counts[window.CntProcessed] = done
	c := window.NewCollector(600, 0)
	for i := int64(0); i < done; i++ {
		c.Latency(lat)
	}
	c.Close()
	for _, f := range c.Drain() {
		w.Lat = f.Lat
		w.LatCount = f.LatCount
		w.LatSum = f.LatSum
		w.LatMin = f.LatMin
		w.LatMax = f.LatMax
	}
	return w
}

func TestBurnAlertFiresOnRisingEdgeOnly(t *testing.T) {
	cfg := Config{
		Objectives: []Objective{{Name: "availability", Kind: Availability, Target: 0.99}},
	}
	wins := []window.Window{
		mkWindow(0, 1, 10, 10, 1),    // healthy
		mkWindow(1, 0.90, 10, 10, 1), // burn 10: fast 10 ≥ 4, slow ≥ 1 → alert
		mkWindow(2, 0.90, 10, 10, 1), // still alerting: no new alert
		mkWindow(3, 1, 10, 10, 1),    // recovers (fast 0)
		mkWindow(4, 0.80, 10, 10, 1), // burn 20 → second alert
	}
	rep := Run(cfg, wins)
	if len(rep.Alerts) != 2 {
		t.Fatalf("got %d alerts, want 2 (rising edges only): %+v", len(rep.Alerts), rep.Alerts)
	}
	if rep.Alerts[0].Window != 1 || rep.Alerts[1].Window != 4 {
		t.Errorf("alert windows %d, %d, want 1, 4", rep.Alerts[0].Window, rep.Alerts[1].Window)
	}
	if rep.Alerts[0].Cause == "" {
		t.Error("alert must carry an attribution")
	}
	if want := 2.0 / 5.0; rep.Attainment != want {
		t.Errorf("attainment %v, want %v (2 of 5 windows within budget)", rep.Attainment, want)
	}
}

func TestSlowBurnSuppressesBlip(t *testing.T) {
	// A long healthy history drags the slow average below 1, so one bad
	// window (fast over threshold) must not alert.
	cfg := Config{
		Objectives: []Objective{{Name: "availability", Kind: Availability, Target: 0.99}},
	}
	var wins []window.Window
	for i := 0; i < 5; i++ {
		wins = append(wins, mkWindow(i, 1, 10, 10, 1))
	}
	wins = append(wins, mkWindow(5, 0.95, 10, 10, 1)) // burn 5: slow = 5/6 < 1
	rep := Run(cfg, wins)
	if len(rep.Alerts) != 0 {
		t.Fatalf("slow-burn average must suppress a one-window blip, got %+v", rep.Alerts)
	}
}

func TestLatencyAndLossObjectives(t *testing.T) {
	cfg := Config{Objectives: []Objective{
		{Name: "p99-latency", Kind: LatencyP99, Target: 120},
		{Name: "loss-rate", Kind: LossRate, Target: 0.01},
	}}
	w := mkWindow(0, 1, 100, 100, 700) // every frame at 700 s ≫ 120 s target
	w.Counts[window.CntShed] = 5
	rep := Run(cfg, []window.Window{w})
	if len(rep.Evals) != 2 {
		t.Fatalf("want 2 evals, got %d", len(rep.Evals))
	}
	if lat := rep.Evals[0]; lat.Burn != 100 { // 100% over target / 1% budget
		t.Errorf("latency burn %v, want 100", lat.Burn)
	}
	if loss := rep.Evals[1]; loss.Burn != 5 { // 5% lost / 1% target
		t.Errorf("loss burn %v, want 5", loss.Burn)
	}
}

func TestCostObjectiveDormantWithoutFloor(t *testing.T) {
	cfg := Config{Objectives: []Objective{{Name: "cost", Kind: CostPerFrame, Target: 2}}}
	w := mkWindow(0, 1, 10, 10, 1)
	w.CostSum = 1e9
	rep := Run(cfg, []window.Window{w})
	if rep.Attainment != 1 || rep.Evals[0].Burn != 0 {
		t.Errorf("cost objective must stay dormant without a floor: %+v", rep.Evals[0])
	}
	cfg.CostFloor = 1 // $1 floor, target ≤ $2/frame
	rep = Run(cfg, []window.Window{w})
	if rep.Evals[0].Burn <= 1 {
		t.Errorf("cost burn %v must exceed budget with CostSum 1e9", rep.Evals[0].Burn)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Objectives: []Objective{{Name: "", Kind: Availability, Target: 0.9}}},
		{Objectives: []Objective{{Name: "a", Kind: Kind(99), Target: 0.9}}},
		{Objectives: []Objective{{Name: "a", Kind: Availability, Target: 1.5}}},
		{Objectives: []Objective{{Name: "a", Kind: LossRate, Target: 0}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d must fail validation", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestAttributeRanksOccupancy(t *testing.T) {
	var a window.Agg
	a.Sec = 100
	a.ThrottleSec = 81
	a.BrownoutSec = 33
	a.OutageSec = 10
	if got, want := Attribute(&a), "thermal-throttle(0.81)+eclipse-brownout(0.33)"; got != want {
		t.Errorf("Attribute = %q, want %q", got, want)
	}

	var spill window.Agg
	spill.Sec = 100
	spill.Counts[window.CntGenerated] = 100
	spill.Counts[window.CntSpilled] = 40
	if got, want := Attribute(&spill), "queue-spillover(0.40)"; got != want {
		t.Errorf("Attribute = %q, want %q", got, want)
	}

	// OutageSec is per-link seconds and can exceed the span; the weight
	// clamps at 1.
	var out window.Agg
	out.Sec = 100
	out.OutageSec = 250
	if got, want := Attribute(&out), "isl-outage(1.00)"; got != want {
		t.Errorf("Attribute = %q, want %q", got, want)
	}

	var backlog window.Agg
	backlog.Counts[window.CntGenerated] = 10
	backlog.Counts[window.CntProcessed] = 3
	if got, want := Attribute(&backlog), "backlog-growth"; got != want {
		t.Errorf("Attribute = %q, want %q", got, want)
	}
	var quiet window.Agg
	if got, want := Attribute(&quiet), "unattributed"; got != want {
		t.Errorf("Attribute = %q, want %q", got, want)
	}
}

func TestWriteReportRendersAlerts(t *testing.T) {
	cfg := DefaultConfig()
	wins := []window.Window{
		mkWindow(0, 1, 10, 10, 1),
		mkWindow(1, 0.5, 10, 10, 1),
	}
	wins[1].BrownoutSec = 300
	rep := Run(cfg, wins)
	var b strings.Builder
	WriteReport(&b, cfg, wins, rep)
	out := b.String()
	for _, want := range []string{
		"SLO report: 2 windows, 4 objectives",
		"w000 ",
		"w001!",
		"burn-rate alerts: 1",
		"eclipse-brownout",
		"attainment: 50.0% of 2 windows",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
