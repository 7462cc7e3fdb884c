// Package dse performs the paper's accelerator design-space exploration
// (§IV-B): it sweeps 7168 Eyeriss-like row-stationary designs — the PE
// grid's x and y lengths and the input-feature, weight, and accumulation
// buffer sizes — over the Figure 13 CNN suite, and derives the three
// system architectures of Figure 18:
//
//   - Global Accelerator: the single design with the best geometric-mean
//     energy efficiency across all network layers;
//   - Per-Network Accelerator: the best design for each network;
//   - Per-Layer Accelerator: the best design for each individual layer.
//
// Energy-efficiency gains are reported against the commodity RTX 3090
// baseline (Figure 17).
package dse

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"sudc/internal/accel"
	"sudc/internal/obs"
	"sudc/internal/par"
	"sudc/internal/workload"
)

// Design-space axes: 7 × 8 × 4 × 4 × 8 = 7168 design points, matching the
// paper's "total of 7168 designs were evaluated".
var (
	peXOptions    = []int{8, 12, 16, 24, 32, 48, 64}
	peYOptions    = []int{1, 2, 3, 4, 5, 7, 12, 16}
	ifmapOptions  = []int{16, 32, 64, 128}
	weightOptions = []int{16, 32, 64, 128}
	accumOptions  = []int{2, 4, 8, 16, 32, 64, 128, 256}
)

// SpaceSize is the number of designs in the exploration.
const SpaceSize = 7 * 8 * 4 * 4 * 8

// space materializes the full design space once; Explore and Space share
// the cached slice, which must never be mutated.
var space = sync.OnceValue(func() []accel.Config {
	out := make([]accel.Config, 0, SpaceSize)
	for _, px := range peXOptions {
		for _, py := range peYOptions {
			for _, ifk := range ifmapOptions {
				for _, wk := range weightOptions {
					for _, ak := range accumOptions {
						out = append(out, accel.Config{
							Name: fmt.Sprintf("rs-%dx%d-i%d-w%d-a%d", px, py, ifk, wk, ak),
							PEX:  px, PEY: py,
							IfmapKB: ifk, WeightKB: wk, AccumKB: ak,
						})
					}
				}
			}
		}
	}
	return out
})

// Space enumerates the full design space in deterministic order. The
// returned slice is the caller's to mutate.
func Space() []accel.Config {
	s := space()
	out := make([]accel.Config, len(s))
	copy(out, s)
	return out
}

// NetworkResult is one network's row in Figure 17.
type NetworkResult struct {
	Network string
	// App is the Table III application driving the network (its measured
	// GPU utilization anchors the baseline energy).
	App string
	// GPUJoules is the commodity-GPU energy per inference.
	GPUJoules float64
	// GlobalJoules, PerNetworkJoules, PerLayerJoules are per-inference
	// energies under the three accelerator system architectures.
	GlobalJoules     float64
	PerNetworkJoules float64
	PerLayerJoules   float64
	// BestConfig is the per-network optimal design.
	BestConfig accel.Config
}

// GlobalGain is the energy-efficiency improvement of the global
// accelerator over the GPU for this network.
func (r NetworkResult) GlobalGain() float64 { return r.GPUJoules / r.GlobalJoules }

// PerNetworkGain mirrors GlobalGain for the per-network architecture.
func (r NetworkResult) PerNetworkGain() float64 { return r.GPUJoules / r.PerNetworkJoules }

// PerLayerGain mirrors GlobalGain for the per-layer architecture.
func (r NetworkResult) PerLayerGain() float64 { return r.GPUJoules / r.PerLayerJoules }

// Result is the full exploration outcome.
type Result struct {
	// DesignsEvaluated is the swept design count (7168).
	DesignsEvaluated int
	// Global is the globally optimal design (geomean over all layers).
	Global accel.Config
	// Networks holds one row per network, in suite order.
	Networks []NetworkResult
}

// geomean over a slice of positive values.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// MeanGlobalGain returns the average (geometric mean) energy-efficiency
// gain of the Global Accelerator architecture — the paper's 57.8×.
func (r Result) MeanGlobalGain() float64 {
	gains := make([]float64, len(r.Networks))
	for i, n := range r.Networks {
		gains[i] = n.GlobalGain()
	}
	return geomean(gains)
}

// MeanPerNetworkGain returns the average gain of the Per-Network
// architecture.
func (r Result) MeanPerNetworkGain() float64 {
	gains := make([]float64, len(r.Networks))
	for i, n := range r.Networks {
		gains[i] = n.PerNetworkGain()
	}
	return geomean(gains)
}

// MeanPerLayerGain returns the average gain of the Per-Layer architecture
// — the paper's "up to 116× on average".
func (r Result) MeanPerLayerGain() float64 {
	gains := make([]float64, len(r.Networks))
	for i, n := range r.Networks {
		gains[i] = n.PerLayerGain()
	}
	return geomean(gains)
}

// netWork binds a network to the Table III app whose measured utilization
// anchors its GPU baseline.
type netWork struct {
	net  workload.Network
	app  workload.App
	macs float64
}

// Explore runs the full design-space exploration for the networks behind
// the given apps (deduplicated), against the GPU baseline.
func Explore(apps []workload.App, gpu accel.GPUModel) (Result, error) {
	if len(apps) == 0 {
		return Result{}, errors.New("dse: no applications")
	}
	// The DSE has no natural injection point for a registry, so it
	// records into the process-wide one (nil when observability is off;
	// all calls below are then no-ops). Everything recorded here sits
	// outside the energy-sweep hot loop.
	sp := obs.Global().StartSpan("dse/explore")
	defer sp.End()

	// Deduplicate networks, remembering the highest-utilization app per
	// network (conservative baseline).
	nets := make([]netWork, 0, len(apps))
	seen := map[string]int{}
	for _, a := range apps {
		n, err := workload.NetworkFor(a)
		if err != nil {
			return Result{}, err
		}
		if i, ok := seen[n.Name]; ok {
			if a.GPUUtilization > nets[i].app.GPUUtilization {
				nets[i].app = a
			}
			continue
		}
		seen[n.Name] = len(nets)
		nets = append(nets, netWork{net: n, app: a, macs: float64(n.TotalMACs())})
	}
	sort.Slice(nets, func(i, j int) bool { return nets[i].net.Name < nets[j].net.Name })

	space := space()

	// layers is the concatenation of all networks' layers; netOf maps
	// each global layer back to its network.
	var layers []workload.Layer
	var netOf []int
	for ni, nw := range nets {
		for _, l := range nw.net.Layers {
			layers = append(layers, l)
			netOf = append(netOf, ni)
		}
	}
	nLayers := len(layers)

	// Layer energy depends only on the layer's shape, and roughly half the
	// suite's layers share a shape with another layer; memoize per unique
	// shape so each (design, shape) pair is evaluated exactly once and the
	// Global/Per-Network/Per-Layer selections below all read the same
	// matrix instead of re-sweeping the space.
	shapes := make([]workload.Layer, 0, nLayers)
	shapeIdx := make([]int, nLayers)
	seenShapes := map[workload.Layer]int{}
	for li, l := range layers {
		key := l
		key.Name = ""
		si, ok := seenShapes[key]
		if !ok {
			si = len(shapes)
			seenShapes[key] = si
			shapes = append(shapes, l)
		}
		shapeIdx[li] = si
	}

	// Each design's work is independent, so the sweep parallelizes over
	// designs and scores every design inside its own item:
	//   energies[ci*nShapes+si] = energy (J) of design ci on unique shape si;
	//   logSums[ci]             = Σ log(energy) over all layers, in layer
	//                             order (the global geomean score);
	//   netSums[ci*nNets+ni]    = network ni's inference energy, summed in
	//                             layer order.
	// Every slot has one writer, so the scores are independent of the
	// worker count.
	nShapes, nNets := len(shapes), len(nets)
	energies := make([]float64, len(space)*nShapes)
	logSums := make([]float64, len(space))
	netSums := make([]float64, len(space)*nNets)
	logBufs := sync.Pool{New: func() any { b := make([]float64, nShapes); return &b }}
	err := par.ForNErr(len(space), func(ci int) error {
		cfg := space[ci]
		row := energies[ci*nShapes : (ci+1)*nShapes]
		if err := cfg.EnergyRow(shapes, row); err != nil {
			return fmt.Errorf("dse: %s on %w", cfg.Name, err)
		}
		logsp := logBufs.Get().(*[]float64)
		logs := *logsp
		for si, e := range row {
			logs[si] = math.Log(e)
		}
		var logSum float64
		sums := netSums[ci*nNets : (ci+1)*nNets]
		for li, si := range shapeIdx {
			logSum += logs[si]
			sums[netOf[li]] += row[si]
		}
		logBufs.Put(logsp)
		logSums[ci] = logSum
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	obs.Global().Counter("dse/designs_evaluated").Add(int64(len(space)))
	obs.Global().Counter("dse/layer_energies").Add(int64(len(space) * nShapes))
	obs.Global().Gauge("dse/networks").Set(float64(nNets))

	// Global optimum: minimize geomean energy across all layers (the
	// paper: "geometric mean of each design's energy efficiency on all
	// neural network layers"). Per-network optima: minimize the network's
	// total inference energy (the metric the per-network system actually
	// pays). Ties keep the lowest design index.
	bestGlobal, bestGlobalScore := 0, math.Inf(1)
	perNetBest := make([]int, nNets)
	perNetScore := make([]float64, nNets)
	for i := range perNetScore {
		perNetScore[i] = math.Inf(1)
	}
	// Per-layer: sum of per-layer minima. A layer's minimum is its
	// shape's minimum over designs, taken row by row.
	shapeMin := make([]float64, nShapes)
	for i := range shapeMin {
		shapeMin[i] = math.Inf(1)
	}
	for ci := range space {
		if logSums[ci] < bestGlobalScore {
			bestGlobalScore = logSums[ci]
			bestGlobal = ci
		}
		for ni, sum := range netSums[ci*nNets : (ci+1)*nNets] {
			if sum < perNetScore[ni] {
				perNetScore[ni] = sum
				perNetBest[ni] = ci
			}
		}
		for si, e := range energies[ci*nShapes : (ci+1)*nShapes] {
			if e < shapeMin[si] {
				shapeMin[si] = e
			}
		}
	}

	// Assemble per-network results.
	results := make([]NetworkResult, nNets)
	globalJ := make([]float64, nNets)
	perNetJ := make([]float64, nNets)
	perLayerJ := make([]float64, nNets)
	for li, si := range shapeIdx {
		ni := netOf[li]
		globalJ[ni] += energies[bestGlobal*nShapes+si]
		perNetJ[ni] += energies[perNetBest[ni]*nShapes+si]
		perLayerJ[ni] += shapeMin[si]
	}
	for ni, nw := range nets {
		gpuJ, err := gpu.NetworkEnergy(nw.net, nw.app.GPUUtilization)
		if err != nil {
			return Result{}, err
		}
		results[ni] = NetworkResult{
			Network:          nw.net.Name,
			App:              nw.app.Name,
			GPUJoules:        gpuJ,
			GlobalJoules:     globalJ[ni],
			PerNetworkJoules: perNetJ[ni],
			PerLayerJoules:   perLayerJ[ni],
			BestConfig:       space[perNetBest[ni]],
		}
	}

	return Result{
		DesignsEvaluated: len(space),
		Global:           space[bestGlobal],
		Networks:         results,
	}, nil
}
