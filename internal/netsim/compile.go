package netsim

// Topology compilation: a validated topo.Graph is lowered into one
// cellPlan per graph cell. A cellPlan is the static half of a cell's
// simulator state — source groups, links with their routing
// continuations, and SµDC worker slices — with every reference
// expressed in cell-local indices so each cell simulates its subgraph
// independently. Cross-cell edges record the destination cell and the
// continuation *in that cell's* index space; at run time the frame
// crosses as a timestamped shardMsg.
//
// The compilation is a pure function of the graph (never of the shard
// count), which is what makes the sharded results byte-identical for
// any Config.Shards value.

import (
	"fmt"

	"sudc/internal/topo"
	"sudc/internal/units"
)

// planLink is one compiled ISL edge owned by the cell of its From node.
type planLink struct {
	rate     units.DataRate // 0 = inherit Config.ISLRate
	delay    float64        // propagation delay, s
	dest     int            // local continuation: edge index, or ^sudcIndex
	cross    bool
	destCell int
	crossTo  int // cross continuation, in the destination cell's index space
	name     string
	label    string // trace edge label: name, or "" on the implicit star
}

// cellPlan is one cell's compiled subgraph.
type cellPlan struct {
	sources []sourceState
	links   []planLink
	sudcs   []int // worker count per SµDC node
	sats    int
	workers int
}

// compile lowers a validated graph into per-cell plans. Node and edge
// iteration order fixes all local indices, so the lowering is
// deterministic. labeled gives each ISL edge its name as trace label;
// the implicit star compiles unlabeled, so its traces carry no edge
// key and name outages "isl-outage#N".
func compile(g *topo.Graph, labeled bool) ([]cellPlan, error) {
	routes, err := g.Routes()
	if err != nil {
		return nil, err
	}
	plans := make([]cellPlan, g.Cells())

	// SµDC nodes first: their local indices are referenced by edge
	// continuations.
	nodeSudc := make([]int, len(g.Nodes))
	for i := range nodeSudc {
		nodeSudc[i] = -1
	}
	for i, nd := range g.Nodes {
		if nd.Kind != topo.SuDC {
			continue
		}
		p := &plans[nd.Cell]
		nodeSudc[i] = len(p.sudcs)
		p.sudcs = append(p.sudcs, nd.Workers)
		p.workers += nd.Workers
	}

	// ISL edges, owned by the cell of their From node. Downlink edges
	// carry no simulated frame traffic (insight accounting happens at
	// the SµDC), so they compile away.
	edgeLocal := make([]int, len(g.Edges))
	for i := range edgeLocal {
		edgeLocal[i] = -1
	}
	for ei, e := range g.Edges {
		if e.Kind != topo.ISL {
			continue
		}
		p := &plans[g.Nodes[e.From].Cell]
		edgeLocal[ei] = len(p.links)
		l := planLink{rate: e.Rate, delay: e.Delay.Seconds(), name: g.EdgeName(ei)}
		if labeled {
			l.label = l.name
		}
		p.links = append(p.links, l)
	}

	// Continuations: a frame delivered at edge (u → v) continues into
	// v's input queue (v is an SµDC) or onto v's own route edge.
	for ei, e := range g.Edges {
		if e.Kind != topo.ISL {
			continue
		}
		srcCell := g.Nodes[e.From].Cell
		dstCell := g.Nodes[e.To].Cell
		var target int
		if g.Nodes[e.To].Kind == topo.SuDC {
			target = ^nodeSudc[e.To]
		} else {
			r := routes[e.To]
			if r < 0 {
				return nil, fmt.Errorf("netsim: edge %s delivers to %q, which has no route to an SµDC",
					g.EdgeName(ei), g.Nodes[e.To].Name)
			}
			target = edgeLocal[r]
		}
		l := &plans[srcCell].links[edgeLocal[ei]]
		if srcCell == dstCell {
			l.dest = target
		} else {
			l.cross = true
			l.destCell = dstCell
			l.crossTo = target
			l.dest = ^0
		}
	}

	// Capture groups, in node order within each cell.
	for i, nd := range g.Nodes {
		if nd.Kind != topo.Source {
			continue
		}
		p := &plans[nd.Cell]
		p.sources = append(p.sources, sourceState{sats: nd.Sats, edge: edgeLocal[routes[i]]})
		p.sats += nd.Sats
	}
	return plans, nil
}

// frameIDBits is the per-cell frame-ID namespace width: cell c assigns
// IDs starting at c<<frameIDBits, so IDs stay globally unique when a
// frame's lifecycle spans cells.
const frameIDBits = 40
