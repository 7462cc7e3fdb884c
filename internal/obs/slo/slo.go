// Package slo evaluates declarative service-level objectives over the
// windowed mission telemetry (package window): availability, frame p99
// latency, loss rate, and realized placement cost against the oracle
// floor, each checked per tumbling window with Google-SRE-style
// multi-window burn-rate alerting (a fast average catches sharp
// budget burn, a slow average suppresses blips). Every alert carries
// an attribution ranked from the window's co-occurring environment
// occupancy — eclipse brownout, thermal throttle, ISL outage,
// queue-aware spillover — so "p99 blew its budget in window 7" comes
// with "because the eclipse-exit throttle was active 80% of it".
//
// Everything here is a pure function of the window stream, which is
// itself byte-identical for any shard or worker count, so SLO reports
// inherit the determinism contract.
package slo

import (
	"fmt"
	"io"
	"strings"

	"sudc/internal/obs/window"
)

// Kind identifies one objective family.
type Kind int

const (
	// Availability: weighted fraction of the window at full service
	// must stay at or above Target (error budget 1-Target).
	Availability Kind = iota
	// LatencyP99: at most 1% of the window's frames may exceed Target
	// seconds end-to-end.
	LatencyP99
	// LossRate: the shed+lost fraction of generated frames must stay
	// at or below Target.
	LossRate
	// CostPerFrame: realized placement cost per processed frame must
	// stay within Target × the oracle cost floor.
	CostPerFrame
)

var kindNames = map[Kind]string{
	Availability: "availability",
	LatencyP99:   "p99-latency",
	LossRate:     "loss-rate",
	CostPerFrame: "cost-per-frame",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Objective is one declarative SLO.
type Objective struct {
	// Name labels the objective in reports and alert trace events.
	Name string
	Kind Kind
	// Target is kind-dependent: minimum availability in [0,1]; p99
	// latency bound in seconds; maximum loss fraction; or the allowed
	// multiple of the oracle cost floor.
	Target float64
}

// The burn-rate alert policy: an alert fires when the burn averaged
// over the last fastWindows windows reaches fastBurn and the average
// over the last slowWindows reaches slowBurn.
const (
	fastWindows = 1
	slowWindows = 6
	fastBurn    = 4.0
	slowBurn    = 1.0
)

// Config declares the objectives.
type Config struct {
	Objectives []Objective
	// CostFloor is the placement oracle's $/frame floor; 0 leaves the
	// cost objective dormant (netsim fills it from the placement model).
	CostFloor float64
}

// DefaultObjectives is the standard mission SLO set.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "availability", Kind: Availability, Target: 0.99},
		{Name: "p99-latency", Kind: LatencyP99, Target: 600},
		{Name: "loss-rate", Kind: LossRate, Target: 0.01},
		{Name: "cost-per-frame", Kind: CostPerFrame, Target: 2},
	}
}

// DefaultConfig is the standard objective set.
func DefaultConfig() Config {
	return Config{Objectives: DefaultObjectives()}
}

// withDefaults fills an empty objective list with the standard set.
func (c Config) withDefaults() Config {
	if len(c.Objectives) == 0 {
		c.Objectives = DefaultObjectives()
	}
	return c
}

// Validate rejects malformed objectives.
func (c Config) Validate() error {
	for _, o := range c.Objectives {
		if _, ok := kindNames[o.Kind]; !ok {
			return fmt.Errorf("slo: objective %q has unknown kind %d", o.Name, int(o.Kind))
		}
		if o.Name == "" {
			return fmt.Errorf("slo: objective of kind %v needs a name", o.Kind)
		}
		if o.Target <= 0 || (o.Kind == Availability && o.Target > 1) {
			return fmt.Errorf("slo: objective %q has invalid target %v", o.Name, o.Target)
		}
	}
	return nil
}

// eval computes one objective's metric value and instantaneous burn
// for a window; active is false when the window carries no signal for
// it (no frames, no weight, or a dormant cost floor).
func (o Objective) eval(w *window.Window, costFloor float64) (value, burn float64, active bool) {
	switch o.Kind {
	case Availability:
		if w.WeightSec == 0 {
			return 1, 0, false
		}
		value = w.Availability()
		budget := 1 - o.Target
		if budget < 1e-9 {
			budget = 1e-9
		}
		return value, (1 - value) / budget, true
	case LatencyP99:
		if w.LatCount == 0 {
			return 0, 0, false
		}
		return w.LatQuantile(0.99), w.FracOver(o.Target) / 0.01, true
	case LossRate:
		if w.Counts[window.CntGenerated] == 0 {
			return 0, 0, false
		}
		value = w.LossRate()
		return value, value / o.Target, true
	case CostPerFrame:
		if costFloor <= 0 || w.CostSum == 0 || w.Counts[window.CntProcessed] == 0 {
			return 0, 0, false
		}
		value = w.CostPerFrame()
		return value, value / (o.Target * costFloor), true
	}
	return 0, 0, false
}

// Eval is one (window, objective) burn evaluation.
type Eval struct {
	Window    int
	Objective string
	// Value is the metric itself (availability fraction, p99 seconds,
	// loss fraction, $/frame); Burn its instantaneous budget burn
	// (≤ 1 is within budget).
	Value, Burn float64
	// Fast and Slow are the multi-window burn averages the alert
	// policy checks; Alerting reports both over threshold.
	Fast, Slow float64
	Alerting   bool
}

// Alert is one burn-rate alert firing (the rising edge of the
// alerting condition).
type Alert struct {
	Objective  string
	Window     int
	Start, End float64
	Fast, Slow float64
	// Cause is the window's ranked environment attribution, e.g.
	// "thermal-throttle(0.81)+eclipse-brownout(0.33)".
	Cause string
}

// Report is a full SLO evaluation over a run's window stream.
type Report struct {
	Windows int
	Evals   []Eval
	Alerts  []Alert
	// Attainment is the fraction of windows with every active
	// objective within budget (burn ≤ 1).
	Attainment float64
}

// Engine evaluates objectives incrementally, one window at a time.
type Engine struct {
	cfg      Config
	burns    [][]float64 // per objective, instantaneous burn history
	alerting []bool
	evals    []Eval
	alerts   []Alert
	windows  int
	attained int
}

// New builds an engine; an empty objective list takes the defaults.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:      cfg,
		burns:    make([][]float64, len(cfg.Objectives)),
		alerting: make([]bool, len(cfg.Objectives)),
	}
}

// avgTail averages the last n entries of burns (fewer if the run is
// younger than the horizon).
func avgTail(burns []float64, n int) float64 {
	if n > len(burns) {
		n = len(burns)
	}
	if n == 0 {
		return 0
	}
	var s float64
	for _, b := range burns[len(burns)-n:] {
		s += b
	}
	return s / float64(n)
}

// Observe evaluates one window and returns the alerts it fired.
func (e *Engine) Observe(w window.Window) []Alert {
	var fired []Alert
	within := true
	for i, o := range e.cfg.Objectives {
		value, burn, active := o.eval(&w, e.cfg.CostFloor)
		e.burns[i] = append(e.burns[i], burn)
		fast := avgTail(e.burns[i], fastWindows)
		slow := avgTail(e.burns[i], slowWindows)
		alerting := active && fast >= fastBurn && slow >= slowBurn
		if active && burn > 1 {
			within = false
		}
		if alerting && !e.alerting[i] {
			a := Alert{
				Objective: o.Name, Window: w.Index,
				Start: w.Start, End: w.End,
				Fast: fast, Slow: slow,
				Cause: Attribute(&w.Agg),
			}
			e.alerts = append(e.alerts, a)
			fired = append(fired, a)
		}
		e.alerting[i] = alerting
		e.evals = append(e.evals, Eval{
			Window: w.Index, Objective: o.Name,
			Value: value, Burn: burn,
			Fast: fast, Slow: slow, Alerting: alerting,
		})
	}
	e.windows++
	if within {
		e.attained++
	}
	return fired
}

// Report closes the evaluation.
func (e *Engine) Report() Report {
	r := Report{Windows: e.windows, Evals: e.evals, Alerts: e.alerts}
	if e.windows > 0 {
		r.Attainment = float64(e.attained) / float64(e.windows)
	}
	return r
}

// Run evaluates a complete window stream in one call.
func Run(cfg Config, wins []window.Window) Report {
	e := New(cfg)
	for _, w := range wins {
		e.Observe(w)
	}
	return e.Report()
}

// Attribute ranks the environment causes co-occurring with a window's
// aggregate: eclipse brownout, thermal throttle, ISL outage, and
// queue-aware spillover, each weighted by its window occupancy (or
// spill fraction), highest first, top two joined by "+". Windows with
// none of the four fall back to "backlog-growth" when more frames
// arrived than finished, else "unattributed".
func Attribute(a *window.Agg) string {
	type cause struct {
		name   string
		weight float64
	}
	var cs []cause
	if a.Sec > 0 {
		if a.BrownoutSec > 0 {
			cs = append(cs, cause{"eclipse-brownout", a.BrownoutSec / a.Sec})
		}
		if a.ThrottleSec > 0 {
			cs = append(cs, cause{"thermal-throttle", a.ThrottleSec / a.Sec})
		}
		if a.OutageSec > 0 {
			w := a.OutageSec / a.Sec
			if w > 1 {
				w = 1
			}
			cs = append(cs, cause{"isl-outage", w})
		}
	}
	if gen := a.Counts[window.CntGenerated]; gen > 0 && a.Counts[window.CntSpilled] > 0 {
		cs = append(cs, cause{"queue-spillover", float64(a.Counts[window.CntSpilled]) / float64(gen)})
	}
	if len(cs) == 0 {
		done := a.Counts[window.CntProcessed] + a.Counts[window.CntShed] + a.Counts[window.CntLost]
		if a.Counts[window.CntGenerated] > done {
			return "backlog-growth"
		}
		return "unattributed"
	}
	// Stable ranking: weight descending, declaration order on ties.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].weight > cs[j-1].weight; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	if len(cs) > 2 {
		cs = cs[:2]
	}
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = fmt.Sprintf("%s(%.2f)", c.name, c.weight)
	}
	return strings.Join(parts, "+")
}

// WriteReport renders the per-window SLO table, the alert timeline
// with attributed causes, and the attainment summary. Everything
// printed derives from simulated time, so the output is byte-identical
// for any shard or worker count — the determinism tests pin it.
func WriteReport(out io.Writer, cfg Config, wins []window.Window, rep Report) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(out, "SLO report: %d windows, %d objectives, burn policy fast %dw ≥ %.1f / slow %dw ≥ %.1f\n",
		rep.Windows, len(cfg.Objectives), fastWindows, fastBurn, slowWindows, slowBurn)
	fmt.Fprintf(out, "  %-6s %-18s %6s %6s %7s %8s %7s %9s  %s\n",
		"window", "span", "gen", "done", "avail", "p99", "loss", "$/frame", "burn")
	evalsAt := func(i int) []Eval {
		lo := i * len(cfg.Objectives)
		return rep.Evals[lo : lo+len(cfg.Objectives)]
	}
	for i, w := range wins {
		burns := make([]string, 0, len(cfg.Objectives))
		mark := " "
		for _, ev := range evalsAt(i) {
			burns = append(burns, fmt.Sprintf("%.1f", ev.Burn))
			if ev.Alerting {
				mark = "!"
			}
		}
		cost := "-"
		if w.CostSum > 0 {
			cost = fmt.Sprintf("%.4f", w.CostPerFrame())
		}
		fmt.Fprintf(out, "  w%03d%s  [%6.1fm,%6.1fm) %6d %6d %6.2f%% %7.1fs %6.2f%% %9s  %s\n",
			w.Index, mark, w.Start/60, w.End/60,
			w.Counts[window.CntGenerated], w.Counts[window.CntProcessed],
			100*w.Availability(), w.LatQuantile(0.99), 100*w.LossRate(),
			cost, strings.Join(burns, "/"))
	}
	if len(rep.Alerts) == 0 {
		fmt.Fprintf(out, "no burn-rate alerts\n")
	} else {
		fmt.Fprintf(out, "burn-rate alerts: %d\n", len(rep.Alerts))
		for _, a := range rep.Alerts {
			fmt.Fprintf(out, "  w%03d  %-14s fast %.1f  slow %.1f  cause %s\n",
				a.Window, a.Objective, a.Fast, a.Slow, a.Cause)
		}
	}
	fmt.Fprintf(out, "attainment: %.1f%% of %d windows within budget\n",
		100*rep.Attainment, rep.Windows)
}
