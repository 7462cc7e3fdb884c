package netsim

// Property tests for the sharded synchronizer: the k-way outbox merge
// against the stable sort it replaced, and the conservative scheduler's
// never-skip invariant — no cell is ever left holding an event inside
// its proven-safe run limit.

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"sudc/internal/topo"
	"sudc/internal/workload"
)

// refMergeOrder is the order contract of mergeOutboxes: concatenate the
// sources in cell order and stable-sort by arrival time.
func refMergeOrder(srcs [][]shardMsg) []shardMsg {
	var all []shardMsg
	for _, s := range srcs {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	return all
}

// mergeVia runs the runner's k-way merge over the given sorted sources.
func mergeVia(srcs [][]shardMsg) []shardMsg {
	r := &shardRunner{}
	n := 0
	for _, s := range srcs {
		if len(s) > 0 {
			r.msrc = append(r.msrc, s)
			n += len(s)
		}
	}
	r.mergeOutboxes(n)
	return r.pending
}

func TestOutboxMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		// Random source count and lengths, straddling both the
		// insertion-gather fast path (≤ 32 messages) and the tree merge,
		// with arrival times drawn from a small grid to force ties.
		k := 1 + rng.Intn(6)
		srcs := make([][]shardMsg, k)
		id := int64(0)
		for i := range srcs {
			m := rng.Intn(24)
			at := 0.0
			for j := 0; j < m; j++ {
				at += float64(rng.Intn(3))
				id++
				srcs[i] = append(srcs[i], shardMsg{at: at, f: frame{id: id}, cell: i})
			}
		}
		got, want := mergeVia(srcs), refMergeOrder(srcs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d messages, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: merge diverges at %d:\n got  %+v\n want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// FuzzOutboxMerge feeds arbitrary byte streams through the merge:
// bytes decode as (source, time-delta) pairs, so every source stays
// time-sorted — the merge's precondition — while cross-source ties and
// degenerate shapes (empty sources, single source, all-equal times)
// all occur. The merged order must equal the stable sort.
func FuzzOutboxMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 2, 0})
	f.Add([]byte{0, 1, 1, 1, 0, 0, 1, 0, 3, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 5
		srcs := make([][]shardMsg, k)
		at := [k]float64{}
		id := int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			s := int(data[i]) % k
			at[s] += float64(data[i+1] % 4)
			id++
			srcs[s] = append(srcs[s], shardMsg{at: at[s], f: frame{id: id}, cell: s})
		}
		got, want := mergeVia(srcs), refMergeOrder(srcs)
		if len(got) != len(want) {
			t.Fatalf("merged %d messages, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("merge diverges at %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

func TestSortMsgsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 64, 65, 200, 1000} {
		ms := make([]shardMsg, n)
		for i := range ms {
			// A small grid of times forces long runs of ties, so any
			// stability break shows up in the id payloads.
			ms[i] = shardMsg{at: float64(rng.Intn(5)), f: frame{id: int64(i)}}
		}
		want := append([]shardMsg(nil), ms...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		var scratch []shardMsg
		sortMsgs(ms, &scratch)
		for i := range ms {
			if ms[i] != want[i] {
				t.Fatalf("n=%d: sortMsgs diverges at %d: got %+v, want %+v", n, i, ms[i], want[i])
			}
		}
	}
}

// TestActiveSetNeverSkips pins the conservative scheduler's safety
// complement: after every round, no cell still holds an event inside
// the run bound the round proved safe for it. A violation means the
// active-set selection skipped a runnable cell — the failure mode that
// would silently desynchronize the shards.
func TestActiveSetNeverSkips(t *testing.T) {
	g, err := topo.Walker(4, 8, 5, 2, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := TopologyConfig(workload.Suite[0], g)
	c.Duration = 30 * time.Minute
	c.Seed = 9
	c.Shards = 1
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	plans, err := compile(c.Topology, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newShardRunner(c, plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for r.window() {
		rounds++
		for i, s := range r.sims {
			nx := s.nextAt()
			if r.lstamp[i] == r.round {
				// Settled below the horizon: the cell must have consumed
				// everything below its limit (or the whole run, when the
				// limit cleared the horizon).
				if lim := r.limit[i]; lim >= r.horizon {
					if nx <= r.horizon {
						t.Fatalf("round %d: final cell %d still holds an event at %v ≤ horizon", r.round, i, nx)
					}
				} else if nx < lim {
					t.Fatalf("round %d: cell %d still holds an event at %v < limit %v", r.round, i, nx, lim)
				}
			} else if nx <= r.horizon {
				// Never settled this round: only possible for a cell whose
				// earliest activity already lies past the horizon.
				t.Fatalf("round %d: unsettled cell %d holds an event at %v ≤ horizon", r.round, i, nx)
			}
		}
	}
	if rounds == 0 {
		t.Fatal("run executed no rounds")
	}
	for _, s := range r.sims {
		putSim(s)
	}
}
