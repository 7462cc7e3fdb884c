// Trace-derived windows: rebuild the per-window aggregate stream from
// a saved flight recording, so sudcmon can evaluate SLOs and diff two
// runs without re-running the DES. The reconstruction walks each
// recorder scope as one cell, replays its fault/degradation events as
// environment edges, and feeds frame events through the same
// window.Collector the live DES uses — so counters, latency buckets,
// and occupancy agree with the native stream (pinned by test).
//
// Two fields are unreconstructable from a recording and stay zero:
// deferred-batch counts (no trace event) and placement cost sums (the
// model's $ figures never reach the trace). Eclipse occupancy is
// approximated by brownout occupancy, its service-visible footprint.

package slo

import (
	"sort"

	"sudc/internal/obs/latency"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
)

// envEdge is one environment change replayed between counting events.
type envEdge struct {
	t float64
	// deltas applied at t
	throttle, brown, outage, effective int
}

// WindowsFromTrace rebuilds the merged window stream of a recording:
// width is the window size in sim seconds, horizon the run length
// (clips open-ended fault windows), and workers/need the per-scope
// complement for the availability occupancy (workers ≤ 0 disables it,
// leaving per-window availability at 1).
func WindowsFromTrace(rec *trace.Recorder, width, horizon float64, workers, need int) []window.Window {
	if rec == nil || width <= 0 {
		return nil
	}
	born := map[int64]float64{}
	var scopes []string
	byScope := map[string][]trace.Event{}
	var walk func(r *trace.Recorder, prefix string)
	walk = func(r *trace.Recorder, prefix string) {
		events := r.View()
		for i := range events {
			e := &events[i]
			if e.Kind == trace.FrameCaptured {
				born[e.Frame] = e.T
			}
		}
		if hasSimEvents(events) {
			scopes = append(scopes, prefix)
			byScope[prefix] = events
		}
		for _, name := range r.Scopes() {
			full := name
			if prefix != "" {
				full = prefix + "/" + name
			}
			walk(r.Child(name), full)
		}
	}
	walk(rec, "")

	var frags []window.Fragment
	for cell, scope := range scopes {
		frags = append(frags, scopeFragments(byScope[scope], cell, width, horizon, workers, need, born)...)
	}
	return window.Merge(width, frags)
}

// hasSimEvents reports whether the scope carries simulation events
// (anything but spans and SLO alerts — scopes holding only derived
// events must not contribute occupancy).
func hasSimEvents(events []trace.Event) bool {
	for i := range events {
		e := &events[i]
		if e.Kind != trace.SpanDone && e.Kind != trace.SLOAlert {
			return true
		}
	}
	return false
}

// scopeFragments replays one scope into per-window fragments.
func scopeFragments(events []trace.Event, cell int, width, horizon float64, workers, need int, born map[int64]float64) []window.Fragment {
	edges := scopeEdges(events, horizon)
	col := window.NewCollector(width, cell)
	var (
		throttled, browned, outages int
		effective                   = workers
		ei                          int
	)
	env := func() window.Env {
		e := window.Env{
			Throttled: throttled > 0,
			Browned:   browned > 0,
			// Eclipse is unrecoverable from the trace; brownout is its
			// service-visible footprint.
			Eclipse:   browned > 0,
			DownLinks: outages,
		}
		if workers > 0 {
			e.Weight = float64(workers)
			e.Up = effective >= need
		}
		return e
	}
	apply := func(upTo float64) {
		for ei < len(edges) && edges[ei].t <= upTo {
			col.Advance(edges[ei].t, env())
			throttled += edges[ei].throttle
			browned += edges[ei].brown
			outages += edges[ei].outage
			effective += edges[ei].effective
			ei++
		}
	}
	for i := range events {
		e := &events[i]
		if e.Kind == trace.SpanDone || e.Kind == trace.SLOAlert {
			continue
		}
		apply(e.T)
		col.Advance(e.T, env())
		switch e.Kind {
		case trace.FrameCaptured:
			col.Count(window.CntGenerated, 1)
		case trace.ComputeEnd:
			if e.Frame > 0 {
				col.Count(window.CntProcessed, 1)
				if b, ok := born[e.Frame]; ok {
					col.Latency(e.T - b)
				}
			}
		case trace.Downlinked:
			col.Count(window.CntInsights, 1)
		case trace.Retry:
			col.Count(window.CntRetried, 1)
		case trace.Enqueued:
			if e.Cause != "" {
				col.Count(window.CntRedispatched, 1)
			}
		case trace.Shed:
			col.Count(window.CntShed, 1)
		case trace.Lost:
			col.Count(window.CntLost, 1)
		case trace.Placed:
			if e.Cause == "spill" {
				col.Count(window.CntSpilled, 1)
			}
		}
	}
	apply(horizon)
	col.Advance(horizon, env())
	col.Close()
	return append([]window.Fragment(nil), col.Drain()...)
}

// scopeEdges compiles a scope's fault and degradation events into a
// sorted environment-edge timeline. Occupancy intervals come from the
// latency package's fault-window reconstruction (clipped ends, throttle
// phases with Mult < 1 only); effective-worker deltas mirror the
// availability cross-check's edge walk.
func scopeEdges(events []trace.Event, horizon float64) []envEdge {
	var edges []envEdge
	for _, iv := range latency.FaultWindows(events, horizon) {
		switch iv.Kind {
		case "throttle":
			edges = append(edges, envEdge{t: iv.Start, throttle: 1}, envEdge{t: iv.End, throttle: -1})
		case "brownout":
			edges = append(edges, envEdge{t: iv.Start, brown: 1}, envEdge{t: iv.End, brown: -1})
		case "isl-outage":
			edges = append(edges, envEdge{t: iv.Start, outage: 1}, envEdge{t: iv.End, outage: -1})
		}
	}
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case trace.NodeDeath:
			edges = append(edges, envEdge{t: e.T, effective: -1})
		case trace.SEFIStart:
			edges = append(edges, envEdge{t: e.T, effective: -1})
		case trace.SEFIEnd:
			edges = append(edges, envEdge{t: e.T, effective: +1})
		case trace.BrownoutStart:
			edges = append(edges, envEdge{t: e.T, effective: -e.N})
		case trace.BrownoutEnd:
			edges = append(edges, envEdge{t: e.T, effective: +e.N})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	return edges
}
