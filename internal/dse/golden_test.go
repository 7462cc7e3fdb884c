package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"testing"

	"sudc/internal/accel"
	"sudc/internal/workload"
)

// Golden pins. The other DSE tests compare one run with another, so a
// change that moves the bits of every run alike passes them; these pin
// the bits themselves.
const (
	// goldenExplore is the SHA-256 of fmt.Sprintf("%#v", r) for
	// r = Explore(workload.Suite, accel.RTX3090Baseline).
	goldenExplore = "c3f1995e444deeaa5120d865f1a195042a9e2ab0349377058e214d1416db8fc2"
	// goldenLayerEnergy is the SHA-256 of the %#v text of every
	// LayerEnergy, concatenated over Space() order, then workload.Suite,
	// then the layers of workload.NetworkFor(app).
	goldenLayerEnergy = "a7d471b79ef9a7b5e8fa52d008f0c5572dac943e16cd6f49687f1ad72f022221"
)

func TestGoldenExplore(t *testing.T) {
	r := explore(t)
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", r)))
	if got := hex.EncodeToString(sum[:]); got != goldenExplore {
		t.Errorf("Explore result hash = %s, want %s", got, goldenExplore)
	}
}

// appendLayerEnergyGoV appends the %#v text of e. fmt's reflection costs
// seconds over the millions of energies hashed below; for finite floats
// %#v is strconv's shortest 'g' form, so this writes the same bytes.
func appendLayerEnergyGoV(b []byte, e accel.LayerEnergy) []byte {
	fields := [...]struct {
		name string
		v    float64
	}{
		{"MAC", e.MAC}, {"RegFile", e.RegFile}, {"NoC", e.NoC},
		{"Buffer", e.Buffer}, {"DRAM", e.DRAM}, {"Idle", e.Idle},
		{"Utilization", e.Utilization},
	}
	b = append(b, "accel.LayerEnergy{"...)
	for i, f := range fields {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, f.name...)
		b = append(b, ':')
		b = strconv.AppendFloat(b, f.v, 'g', -1, 64)
	}
	return append(b, '}')
}

func TestGoldenLayerEnergy(t *testing.T) {
	var layers []workload.Layer
	for _, a := range workload.Suite {
		n, err := workload.NetworkFor(a)
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, n.Layers...)
	}
	h := sha256.New()
	var buf []byte
	for ci, c := range Space() {
		for _, l := range layers {
			e, err := c.LayerEnergy(l)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.Name, l.Name, err)
			}
			buf = appendLayerEnergyGoV(buf[:0], e)
			if ci == 0 {
				// Keep the fast encoder honest against fmt itself.
				if want := fmt.Sprintf("%#v", e); string(buf) != want {
					t.Fatalf("encoder wrote %s, fmt writes %s", buf, want)
				}
			}
			h.Write(buf)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenLayerEnergy {
		t.Errorf("LayerEnergy hash = %s, want %s", got, goldenLayerEnergy)
	}
}

// TestEnergyRowMatchesLayerEnergy checks the batch kernel the sweep uses
// against the single-layer entry point, bit for bit, for every design and
// every unique suite shape.
func TestEnergyRowMatchesLayerEnergy(t *testing.T) {
	var shapes []workload.Layer
	seen := map[workload.Layer]bool{}
	for _, a := range workload.Suite {
		n, err := workload.NetworkFor(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range n.Layers {
			key := l
			key.Name = ""
			if !seen[key] {
				seen[key] = true
				shapes = append(shapes, l)
			}
		}
	}
	row := make([]float64, len(shapes))
	for _, c := range Space() {
		if err := c.EnergyRow(shapes, row); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for si, l := range shapes {
			e, err := c.LayerEnergy(l)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.Name, l.Name, err)
			}
			if got, want := math.Float64bits(row[si]), math.Float64bits(e.Joules()); got != want {
				t.Fatalf("%s on %s: EnergyRow bits %#x, LayerEnergy bits %#x", c.Name, l.Name, got, want)
			}
		}
	}
}
