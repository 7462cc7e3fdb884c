package trace_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"sudc/internal/obs"
	"sudc/internal/obs/trace"
)

// The recorder must keep satisfying the registry's span-sink hook.
var _ obs.SpanSink = (*trace.Recorder)(nil)

func TestRecordAndEvents(t *testing.T) {
	r := trace.New(0)
	r.Record(trace.Event{T: 1, Kind: trace.FrameCaptured, Frame: 1, Node: 3})
	r.Record(trace.Event{T: 2, Kind: trace.Enqueued, Frame: 1, Node: -1})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	ev := r.Events()
	if ev[0].Kind != trace.FrameCaptured || ev[1].Kind != trace.Enqueued {
		t.Errorf("events out of order: %+v", ev)
	}
	// Events returns a copy: mutating it must not affect the recorder.
	ev[0].Frame = 99
	if r.Events()[0].Frame != 1 {
		t.Error("Events must return a copy")
	}
}

func TestBoundedDrops(t *testing.T) {
	r := trace.New(3)
	for i := 0; i < 5; i++ {
		r.Record(trace.Event{T: float64(i), Kind: trace.FrameCaptured, Frame: int64(i + 1), Node: 0})
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3 (bounded)", r.Len())
	}
	if r.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", r.Dropped())
	}
	// The kept events are the earliest — the recorder is a flight
	// recorder for the start of the run, not a ring buffer.
	if ev := r.Events(); ev[0].Frame != 1 || ev[2].Frame != 3 {
		t.Errorf("kept events wrong: %+v", ev)
	}
}

func TestChildScopes(t *testing.T) {
	r := trace.New(0)
	r.Child("r001").Record(trace.Event{T: 1, Kind: trace.Shed, Frame: 1, Node: -1})
	r.Child("r000").Record(trace.Event{T: 2, Kind: trace.Lost, Frame: 2, Node: -1})
	r.Child("r000").Record(trace.Event{T: 3, Kind: trace.Lost, Frame: 3, Node: -1})
	if got := r.Scopes(); !reflect.DeepEqual(got, []string{"r000", "r001"}) {
		t.Errorf("Scopes = %v, want sorted [r000 r001]", got)
	}
	if r.TotalLen() != 3 {
		t.Errorf("TotalLen = %d, want 3", r.TotalLen())
	}
	// Child is idempotent: same name, same scope.
	if r.Child("r000").Len() != 2 {
		t.Errorf("child r000 Len = %d, want 2", r.Child("r000").Len())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *trace.Recorder
	r.Record(trace.Event{})
	r.SpanDone("x", time.Second, 1)
	if r.Child("c") != nil {
		t.Error("nil recorder must hand out nil children")
	}
	if r.Len() != 0 || r.TotalLen() != 0 || r.Dropped() != 0 || r.Events() != nil || r.Scopes() != nil {
		t.Error("nil recorder accessors must be zero-valued")
	}
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil || b.Len() != 0 {
		t.Error("nil recorder must export nothing")
	}
	if err := r.WriteChrome(&b); err != nil || b.Len() != 0 {
		t.Error("nil recorder must export no Chrome trace")
	}
}

func TestSpanDoneRecordsSpanEvent(t *testing.T) {
	r := trace.New(0)
	r.SpanDone("build", 2*time.Second, 7.5)
	ev := r.Events()
	if len(ev) != 1 || ev[0].Kind != trace.SpanDone || ev[0].Name != "build" ||
		ev[0].Dur != 2.0 || ev[0].Sim != 7.5 {
		t.Errorf("span event wrong: %+v", ev)
	}
}

func sampleRecorder() *trace.Recorder {
	r := trace.New(0)
	r.Record(trace.Event{T: 0, Kind: trace.FrameCaptured, Frame: 1, Node: 2})
	r.Record(trace.Event{T: 0.5, Kind: trace.OutageStart, Node: -1, Dur: 3, Cause: "isl-outage#1"})
	r.Record(trace.Event{T: 0.5, Kind: trace.Retry, Frame: 1, Node: -1, Attempt: 1, Backoff: 2, Cause: "isl-outage#1"})
	r.Record(trace.Event{T: 2.5, Kind: trace.ISLSendStart, Frame: 1, Node: -1})
	r.Record(trace.Event{T: 2.6, Kind: trace.ISLSendEnd, Frame: 1, Node: -1})
	r.Record(trace.Event{T: 2.6, Kind: trace.Enqueued, Frame: 1, Node: -1})
	r.Record(trace.Event{T: 3, Kind: trace.Dispatched, Frame: 1, Node: 0})
	r.Record(trace.Event{T: 3, Kind: trace.ComputeStart, Node: 0, N: 1})
	r.Record(trace.Event{T: 3.5, Kind: trace.OutageEnd, Node: -1, Cause: "isl-outage#1"})
	r.Record(trace.Event{T: 4, Kind: trace.ComputeEnd, Node: 0, N: 1})
	r.Record(trace.Event{T: 4, Kind: trace.ComputeEnd, Frame: 1, Node: 0})
	r.Record(trace.Event{T: 4, Kind: trace.Downlinked, Frame: 1, Node: 0})
	c := r.Child("r000")
	c.Record(trace.Event{T: 1, Kind: trace.NodeDeath, Node: 1})
	c.Record(trace.Event{T: 1.5, Kind: trace.SEFIStart, Node: 0, Dur: 30})
	c.Record(trace.Event{T: 31.5, Kind: trace.SEFIEnd, Node: 0})
	return r
}

func TestJSONLRoundTrip(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.DecodeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Events(), r.Events()) {
		t.Error("root events changed over the round trip")
	}
	if !reflect.DeepEqual(back.Scopes(), r.Scopes()) {
		t.Errorf("scopes changed: %v vs %v", back.Scopes(), r.Scopes())
	}
	if !reflect.DeepEqual(back.Child("r000").Events(), r.Child("r000").Events()) {
		t.Error("child events changed over the round trip")
	}
	// Re-encoding the decoded recorder must be byte-identical.
	var buf2 bytes.Buffer
	if err := back.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("JSONL re-encode differs from original encode")
	}
}

func TestDecodeJSONLRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		`{"t":1,"k":"no_such_kind","n":-1}`,
		`{"t":1,"k":"shed","n":-1,"mystery":true}`,
		`not json at all`,
		`{"t":1,"k":"shed","n":-1} {"trailing":1}`,
	} {
		if _, err := trace.DecodeJSONL(strings.NewReader(bad)); err == nil {
			t.Errorf("DecodeJSONL(%q) must error", bad)
		}
	}
	// Blank lines and trailing newlines are tolerated.
	ok := "{\"t\":1,\"k\":\"shed\",\"f\":1,\"n\":-1}\n\n"
	rec, err := trace.DecodeJSONL(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 1 {
		t.Errorf("Len = %d, want 1", rec.Len())
	}
}

func TestChromeExportIsValidAndDeterministic(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if parsed.Unit != "ms" || len(parsed.TraceEvents) == 0 {
		t.Fatalf("unexpected Chrome file shape: unit=%q, %d events", parsed.Unit, len(parsed.TraceEvents))
	}
	names := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		if n, ok := e["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"process_name", "thread_name", "frame 1",
		"xfer f1", "retry f1", "batch ×1", "outage", "death", "SEFI"} {
		if !names[want] {
			t.Errorf("Chrome export missing %q event; have %v", want, names)
		}
	}
	var buf2 bytes.Buffer
	if err := r.WriteChrome(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("Chrome export is not deterministic across calls")
	}
}

func TestKindJSONStableNames(t *testing.T) {
	b, err := json.Marshal(trace.FrameCaptured)
	if err != nil || string(b) != `"frame_captured"` {
		t.Errorf("Marshal(FrameCaptured) = %s, %v", b, err)
	}
	var k trace.Kind
	if err := json.Unmarshal([]byte(`"isl_send_end"`), &k); err != nil || k != trace.ISLSendEnd {
		t.Errorf("Unmarshal(isl_send_end) = %v, %v", k, err)
	}
	if err := json.Unmarshal([]byte(`"warp_drive"`), &k); err == nil {
		t.Error("unknown kind must fail to unmarshal")
	}
	if _, err := json.Marshal(trace.Kind(250)); err == nil {
		t.Error("out-of-range kind must fail to marshal")
	}
}

func TestRegistrySpanSinkFeedsRecorder(t *testing.T) {
	reg := obs.New()
	rec := trace.New(0)
	reg.SetSpanSink(rec)
	sp := reg.StartSpan("stage")
	sp.SetSim(42)
	sp.End()
	ev := rec.Events()
	if len(ev) != 1 || ev[0].Kind != trace.SpanDone || ev[0].Name != "stage" || ev[0].Sim != 42 {
		t.Fatalf("span sink event wrong: %+v", ev)
	}
	reg.SetSpanSink(nil)
	reg.StartSpan("ignored").End()
	if rec.Len() != 1 {
		t.Error("removed sink must stop receiving spans")
	}
}

// TestViewStableUnderConcurrentRecord pins View's contract: while one
// goroutine keeps recording (and the backing array keeps growing),
// every view taken earlier still reads the events it was taken with.
// Run under -race it also proves the reads never touch an element a
// producer writes.
func TestViewStableUnderConcurrentRecord(t *testing.T) {
	const n = 5000
	r := trace.New(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			r.Record(trace.Event{T: float64(i), Kind: trace.FrameCaptured, Frame: int64(i), Node: -1})
		}
	}()
	var views [][]trace.Event
	check := func(v []trace.Event) {
		if cap(v) != len(v) {
			t.Fatalf("view has cap %d beyond its len %d", cap(v), len(v))
		}
		for i, e := range v {
			if e.Frame != int64(i+1) || e.T != float64(i+1) {
				t.Fatalf("view element %d reads frame %d at t=%v", i, e.Frame, e.T)
			}
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		v := r.View()
		check(v)
		views = append(views, v)
	}
	for _, v := range views {
		check(v)
	}
	if got := len(r.View()); got != n {
		t.Fatalf("final view has %d events, want %d", got, n)
	}
}
