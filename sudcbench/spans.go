package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupOp is the op id of spans recorded during set-up.
const setupOp = -1

// span is one timed call from the benchmark into a layer.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`   // ID of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Alloc is the Go heap allocated inside the span, children included.
	Alloc uint64 `json:"alloc_bytes"`
	Note  string `json:"note,omitempty"` // e.g. the exhibit ID
}

// tracer records spans in memory for one single-goroutine run. A nil
// tracer records nothing, so untraced ops pay one nil check per call.
type tracer struct {
	epoch time.Time
	op    int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: setupOp} }

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Op: t.op, Parent: parent, Alloc: heapAllocBytes(), Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// note attaches a label to span id.
func (t *tracer) note(id int, s string) {
	if t != nil {
		t.spans[id].Note = s
	}
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("sudcbench: span %d closed out of order", id))
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	s.Alloc = heapAllocBytes() - s.Alloc
	t.open = t.open[:n-1]
}

// selfTimes sums each span name's self time per op: the span's
// duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[int]map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int]map[string]time.Duration{}
	for _, s := range spans {
		self := time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		if out[s.Op] == nil {
			out[s.Op] = map[string]time.Duration{}
		}
		out[s.Op][s.Name] += self
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach int64
	reach = parent.Start
	for _, v := range ivs {
		if v.lo < reach {
			v.lo = reach
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			reach = v.hi
		}
	}
	return time.Duration(total)
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
