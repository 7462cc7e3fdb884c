package netsim

// Multi-tier compute placement inside the DES: when Config.Placement is
// set, every captured frame is routed at capture time to one of the
// four placement tiers. The space tier is the legacy ISL/batch pipeline
// untouched; the other three are modeled as FIFO server queues with
// constant service times — a derated flight computer per satellite
// (onboard), a finite premium GPU pool behind the shared downlink
// (ground edge), and an elastic pool behind the downlink plus WAN
// (cloud). Each of the three is one station (see below).
//
// Determinism contract: routing decisions are pure functions of the
// priced model and the observed queue lengths — no RNG draws, no seed
// events — and the new event kinds are appended after the legacy ones.
// A Static-to-space policy therefore replays the placement-free event
// sequence bit for bit; the only deltas are the placement-only Stats
// fields and the "placed" trace lines.

import (
	"math"
	"sort"
	"time"

	"sudc/internal/obs/latency"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/placement"
)

// setPlacement installs the (possibly nil) placement engine. resetTopo
// runs it once frameBits and totalSats are known; cells is the cell
// count the shared downlink rate is split across (1 for the star).
func (s *simulator) setPlacement(pc *placement.Config, cells int) {
	s.place = pc
	if pc == nil {
		return
	}
	s.pmodel = pc.Model
	if cells < 1 {
		cells = 1
	}
	s.dlSendTime = s.frameBits / pc.Ratio() / (float64(pc.DownlinkRate) / float64(cells))
	s.accessDelay = pc.AccessDelay.Seconds()
	s.wanDelay = pc.WANDelay.Seconds()
	tiers := &pc.Model.Tiers
	// One flight computer per satellite; the cell's onboard capacity is
	// its satellite population (the pool approximation: any satellite's
	// computer can serve, which upper-bounds the per-satellite truth).
	s.onboard.reset(s.totalSats, tiers[placement.TierOnboard].ServiceTime, evOnboardDone)
	s.edge.reset(pc.EdgeServers, tiers[placement.TierGroundEdge].ServiceTime, evEdgeDone)
	s.cloud.reset(math.MaxInt, tiers[placement.TierCloud].ServiceTime, evCloudDone)
	// The zero-queue base tier: where the policy sends a frame when no
	// queue pressures it elsewhere. Decide draws no RNG, so probing it
	// here leaves the run's stream untouched; a routing that deviates
	// from the base is a queue-aware spillover.
	s.placeBase = pc.Policy.Decide(pc.Model, placement.State{}).Tier
}

// route runs the placement decision for one captured frame and starts
// it down its tier's path.
func (s *simulator) route(f frame, sat int) {
	d := s.place.Policy.Decide(s.pmodel, placement.State{QueueLen: s.queueLen})
	f.tier = int8(d.Tier)
	s.queueLen[d.Tier]++
	cause := ""
	if d.Tier != s.placeBase {
		cause = "spill"
		s.win.Count(window.CntSpilled, 1)
	}
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.Placed, Frame: f.id,
			Node: sat, Tier: d.Tier.String(), Cause: cause})
	}
	switch d.Tier {
	case placement.TierSpace:
		// The legacy pipeline, frame tagged: ISL queue, batcher, workers.
		ei := s.satEdge[sat]
		s.links[ei].queue.pushBack(f)
		s.attemptISL(ei)
	case placement.TierOnboard:
		s.admit(&s.onboard, f)
	default: // ground-bound: the shared downlink first
		s.dlQueue.pushBack(f)
		s.attemptDownlink()
	}
}

// station is one off-SµDC tier's server pool: frames wait FIFO for one
// of its servers, each serving one frame in a constant time. Because
// the service time is a per-run constant, in-service frames complete in
// dispatch order, so one serving deque replaces per-server state and
// the engine stays allocation-free in steady state.
type station struct {
	wait, run     frameDeque // frames waiting for a server; frames in service
	busy, servers int
	svc           float64 // per-frame service time, s
	done          int     // completion event kind
}

// reset empties the station and configures its pool.
func (st *station) reset(servers int, svc float64, done int) {
	st.wait.reset()
	st.run.reset()
	st.busy, st.servers, st.svc, st.done = 0, servers, svc, done
}

// admit starts a frame's service on a free server, or queues it.
func (s *simulator) admit(st *station, f frame) {
	if st.busy < st.servers {
		st.busy++
		s.startPlaced(st, f)
	} else {
		st.wait.pushBack(f)
	}
}

// serve completes the station's oldest in-service frame and hands the
// freed server to the next waiting frame.
func (s *simulator) serve(st *station) {
	f := st.run.popFront()
	st.busy--
	s.stats.FramesProcessed++
	s.win.Count(window.CntProcessed, 1)
	s.frameDone(f, -1)
	if st.wait.len() > 0 {
		st.busy++
		s.startPlaced(st, st.wait.popFront())
	}
}

// startPlaced begins a placed frame's service: it joins the station's
// serving deque and its completion event fires svc seconds later.
// Dispatched is recorded with Node -1 — tier servers are not SµDC
// workers.
func (s *simulator) startPlaced(st *station, f frame) {
	st.run.pushBack(f)
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.Dispatched, Frame: f.id, Node: -1})
	}
	s.push(event{at: s.now + st.svc, kind: st.done})
}

// attemptDownlink starts the shared downlink's head-frame transmission.
// The downlink is a single-server queue: the cell's share of the
// constellation's deliverable ground rate serves ground-bound frames
// one at a time, which is where downlink contention shows up as
// queueing latency.
func (s *simulator) attemptDownlink() {
	if s.dlSending || s.dlQueue.len() == 0 {
		return
	}
	s.dlSending = true
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.ISLSendStart,
			Frame: s.dlQueue.front().id, Node: -1, Edge: "downlink"})
	}
	s.push(event{at: s.now + s.dlSendTime, kind: evDownlinkDone})
}

// downlinkDone lands the transmitted frame on the ground: it continues
// to its tier after the constant access (+ WAN for cloud) delay. The
// mean pass-access wait is applied after transmission; for a constant
// delay this is interchangeable with a pre-transmission wait — it
// shifts every downlink busy period by the same amount without
// changing any queueing wait.
func (s *simulator) downlinkDone() {
	f := s.dlQueue.popFront()
	s.dlSending = false
	if s.tr != nil {
		s.tr.Record(trace.Event{T: s.now, Kind: trace.ISLSendEnd, Frame: f.id,
			Node: -1, Edge: "downlink"})
	}
	if placement.Tier(f.tier) == placement.TierCloud {
		s.cloudWait.pushBack(f)
		s.push(event{at: s.now + s.accessDelay + s.wanDelay, kind: evCloudArrive})
	} else {
		s.edgeWait.pushBack(f)
		s.push(event{at: s.now + s.accessDelay, kind: evEdgeArrive})
	}
	s.attemptDownlink()
}

// accountTier records one completed frame's tier outcome. The realized
// per-frame cost is the tier's amortized dollars plus the
// latency-weighted end-to-end latency — which is what makes the Oracle
// floor a provable lower bound: realized latency ≥ the load-free
// transport+service floor the static cost prices.
func (s *simulator) accountTier(t placement.Tier, lat float64) {
	s.queueLen[t]--
	s.tierFrames[t]++
	s.tierLats[t] = append(s.tierLats[t], lat)
	d := s.pmodel.Tiers[t].DollarsPerFrame
	s.tierDollars[t] += d
	s.placeCostSum += d + s.pmodel.LatencyWeight*lat
	s.win.Cost(d + s.pmodel.LatencyWeight*lat)
}

// finishPlacement assembles the per-tier Stats at the end of a run.
// A multi-cell run summarizes tier latency over the merged samples
// instead (see shardRunner.finish).
func (s *simulator) finishPlacement(stats *Stats) {
	stats.TierFrames = s.tierFrames
	stats.TierDollars = s.tierDollars
	if !s.mergeLat {
		summarizeTiers(stats, &s.tierLats)
	}
	if stats.FramesProcessed > 0 {
		stats.PlacedMeanCost = s.placeCostSum / float64(stats.FramesProcessed)
	}
	stats.OracleMeanCost = s.pmodel.OracleCost()
}

// summarizeTiers sets each tier's mean and p99 latency from its samples,
// sorting them in place; tiers with no samples stay zero.
func summarizeTiers(stats *Stats, lats *[placement.NumTiers][]float64) {
	for t, v := range lats {
		if len(v) == 0 {
			continue
		}
		sort.Float64s(v)
		var sum float64
		for _, l := range v {
			sum += l
		}
		stats.TierMeanLatency[t] = time.Duration(sum / float64(len(v)) * float64(time.Second))
		stats.TierP99Latency[t] = time.Duration(latency.Quantile(v, 0.99) * float64(time.Second))
	}
}
