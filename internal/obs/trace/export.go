package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"
)

// MarshalJSON encodes the kind as its stable wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("trace: unknown kind %d", uint8(k))
	}
	return json.Marshal(kindNames[k])
}

// UnmarshalJSON decodes a wire name back into a Kind, rejecting
// unknown names.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, ok := kindByName[s]
	if !ok {
		return fmt.Errorf("trace: unknown event kind %q", s)
	}
	*k = v
	return nil
}

// Line is one decoded JSONL record: an event plus the scope it was
// recorded under ("" = the root scope).
type Line struct {
	Scope string `json:"scope,omitempty"`
	Event
}

// WriteJSONL writes the recorder — root scope first, then child scopes
// ascending by name — as one JSON object per line. The output is a
// pure function of the recorded events, so deterministic recordings
// export to byte-identical files.
//
// Each line is byte-for-byte what json.Encoder writes for a Line
// (FuzzWriteJSONL pins the two together); the direct appender below
// skips encoding/json's reflection, which dominated the export cost.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	var (
		buf = make([]byte, 0, jsonlChunk+1024)
		err error
	)
	r.walk("", func(scope string, events []Event) {
		if err != nil {
			return
		}
		var prefix []byte
		if scope != "" {
			prefix = appendString(append(prefix, `"scope":`...), scope)
			prefix = append(prefix, ',')
		}
		for i := range events {
			buf = append(append(buf, '{'), prefix...)
			if buf, err = appendEvent(buf, &events[i]); err != nil {
				return
			}
			buf = append(buf, '}', '\n')
			if len(buf) >= jsonlChunk {
				if _, err = w.Write(buf); err != nil {
					return
				}
				buf = buf[:0]
			}
		}
	})
	if err == nil && len(buf) > 0 {
		_, err = w.Write(buf)
	}
	return err
}

// jsonlChunk is the output size WriteJSONL buffers between writes.
const jsonlChunk = 64 << 10

// appendEvent appends e's JSON members in Event's field order with
// encoding/json's rules: omitempty fields vanish at their zero value
// (including -0), and NaN or ±Inf is an error.
func appendEvent(b []byte, e *Event) ([]byte, error) {
	if int(e.Kind) >= len(kindNames) {
		return b, fmt.Errorf("trace: unknown kind %d", uint8(e.Kind))
	}
	b, err := appendFloat(append(b, `"t":`...), e.T)
	if err != nil {
		return b, err
	}
	b = append(append(append(b, `,"k":"`...), kindNames[e.Kind]...), '"')
	if e.Frame != 0 {
		b = strconv.AppendInt(append(b, `,"f":`...), e.Frame, 10)
	}
	b = strconv.AppendInt(append(b, `,"n":`...), int64(e.Node), 10)
	if e.N != 0 {
		b = strconv.AppendInt(append(b, `,"sz":`...), int64(e.N), 10)
	}
	if e.Attempt != 0 {
		b = strconv.AppendInt(append(b, `,"a":`...), int64(e.Attempt), 10)
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"b":`, e.Backoff}, {`,"d":`, e.Dur}, {`,"sim":`, e.Sim}, {`,"m":`, e.Mult}} {
		if f.v != 0 {
			if b, err = appendFloat(append(b, f.key...), f.v); err != nil {
				return b, err
			}
		}
	}
	for _, f := range [...]struct{ key, v string }{
		{`,"c":`, e.Cause}, {`,"e":`, e.Edge}, {`,"tr":`, e.Tier}, {`,"name":`, e.Name},
	} {
		if f.v != "" {
			b = appendString(append(b, f.key...), f.v)
		}
	}
	return b, nil
}

// appendFloat formats v as encoding/json does: shortest round-trip
// digits, in exponent form below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped ("1e-07" → "1e-7").
func appendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b, fmt.Errorf("trace: unsupported value %v", v)
	}
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. Printable ASCII with nothing
// to escape is copied as is; anything else goes through json.Marshal,
// so control characters, HTML-sensitive characters, and invalid UTF-8
// are escaped exactly as encoding/json escapes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' ||
			c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// decodeLimit is the per-scope bound of the recorder DecodeJSONL
// fills; tests lower it to exercise the overflow error.
var decodeLimit = DefaultLimit

// DecodeJSONL reads a WriteJSONL stream back into a recorder (scopes
// become children of the root), rejecting malformed lines and unknown
// event kinds. Blank lines are skipped, so hand-edited traces with a
// trailing newline still load. A scope holding more events than a
// recorder keeps is an error naming the first line that does not fit,
// never a silently truncated recording.
func DecodeJSONL(rd io.Reader) (*Recorder, error) {
	rec := New(decodeLimit)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	for sc.Scan() {
		n++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ln Line
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ln); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", n, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("trace: line %d: trailing data after event", n)
		}
		target := rec
		if ln.Scope != "" {
			target = rec.Child(ln.Scope)
		}
		if target.Len() >= target.limit {
			return nil, fmt.Errorf("trace: line %d: scope %q exceeds the recorder limit of %d events",
				n, ln.Scope, target.limit)
		}
		target.Record(ln.Event)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rec, nil
}

// Chrome trace-event export. Format reference: the Trace Event Format
// spec consumed by Perfetto and chrome://tracing. Each recorder scope
// becomes one process; inside a process, tid 1 is the frame timeline
// (flow anchors, sheds, losses), tid 2 the ISL (transfer slices,
// outage windows, retries), and tid 10+w worker w (batch slices, SEFI
// windows, deaths). Frames are flow events ("s"/"t"/"f" with a
// per-frame id) threading capture → dispatch → compute end.
const (
	tidFrames = 1
	tidISL    = 2
	tidEnv    = 3  // degradation phases (throttle slices, brownout windows)
	tidWorker = 10 // + worker index
)

// chromeEvent is one trace-event record. Args is encoded with sorted
// keys by encoding/json, keeping the export deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const usPerSec = 1e6

// WriteChrome writes the recorder as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Deterministic for
// deterministic recordings, like WriteJSONL.
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		return nil
	}
	var out []chromeEvent
	pid := 0
	r.walk("", func(scope string, events []Event) {
		pid++
		out = append(out, scopeChrome(pid, scope, events)...)
	})
	b, err := json.Marshal(chromeFile{TraceEvents: out, DisplayTimeUnit: "ms"})
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// scopeChrome renders one scope's events into trace-event records.
func scopeChrome(pid int, scope string, events []Event) []chromeEvent {
	if scope == "" {
		scope = "main"
	}
	var out []chromeEvent
	meta := func(tid int, name string) {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": scope},
	})
	meta(tidFrames, "frames")
	meta(tidISL, "ISL")
	// The environment track is named lazily, like worker tracks, so
	// recordings without degradation events export byte-identically to
	// before the track existed.
	envNamed := false
	env := func() int {
		if !envNamed {
			envNamed = true
			meta(tidEnv, "env")
		}
		return tidEnv
	}
	namedWorkers := map[int]bool{}
	worker := func(node int) int {
		if node >= 0 && !namedWorkers[node] {
			namedWorkers[node] = true
			meta(tidWorker+node, fmt.Sprintf("worker %02d", node))
		}
		return tidWorker + node
	}
	flowID := func(frame int64) string { return fmt.Sprintf("%s/f%d", scope, frame) }

	var (
		sendStart   = map[int64]float64{}     // frame -> in-flight transfer start
		computeOpen = map[int]openBatch{}     // node -> open batch slice
		outages     = map[string]openOutage{} // edge label ("" = legacy ISL) -> open window
		brownout    *openBrownout             // open eclipse-brownout window
		lastT       float64
	)
	outageArgs := func(ow openOutage, edge string) map[string]any {
		args := map[string]any{"cause": ow.cause}
		if edge != "" {
			args["edge"] = edge
		}
		return args
	}
	for _, e := range events {
		if e.T > lastT {
			lastT = e.T
		}
		ts := e.T * usPerSec
		switch e.Kind {
		case FrameCaptured:
			out = append(out,
				chromeEvent{Name: fmt.Sprintf("frame %d", e.Frame), Ph: "i", Ts: ts,
					Pid: pid, Tid: tidFrames, S: "t",
					Args: map[string]any{"satellite": e.Node}},
				chromeEvent{Name: "frame", Ph: "s", Ts: ts, Pid: pid, Tid: tidFrames,
					ID: flowID(e.Frame)})
		case ISLSendStart:
			sendStart[e.Frame] = e.T
		case ISLSendEnd:
			start, ok := sendStart[e.Frame]
			if !ok {
				break
			}
			delete(sendStart, e.Frame)
			ev := chromeEvent{Name: fmt.Sprintf("xfer f%d", e.Frame), Ph: "X",
				Ts: start * usPerSec, Dur: (e.T - start) * usPerSec,
				Pid: pid, Tid: tidISL}
			if e.Cause != "" {
				ev.Name = fmt.Sprintf("xfer f%d (aborted)", e.Frame)
				ev.Args = map[string]any{"cause": e.Cause}
			}
			if e.Edge != "" {
				if ev.Args == nil {
					ev.Args = map[string]any{}
				}
				ev.Args["edge"] = e.Edge
			}
			out = append(out, ev)
		case Retry:
			args := map[string]any{"attempt": e.Attempt, "backoff_s": e.Backoff, "cause": e.Cause}
			if e.Edge != "" {
				args["edge"] = e.Edge
			}
			out = append(out, chromeEvent{Name: fmt.Sprintf("retry f%d", e.Frame),
				Ph: "i", Ts: ts, Pid: pid, Tid: tidISL, S: "t", Args: args})
		case Shed:
			out = append(out, chromeEvent{Name: fmt.Sprintf("shed f%d", e.Frame),
				Ph: "i", Ts: ts, Pid: pid, Tid: tidFrames, S: "t"})
		case Lost:
			out = append(out, chromeEvent{Name: fmt.Sprintf("lost f%d", e.Frame),
				Ph: "i", Ts: ts, Pid: pid, Tid: tidFrames, S: "t",
				Args: map[string]any{"attempts": e.Attempt, "cause": e.Cause}})
		case Dispatched:
			out = append(out, chromeEvent{Name: "frame", Ph: "t", Ts: ts,
				Pid: pid, Tid: worker(e.Node), ID: flowID(e.Frame), BP: "e"})
		case ComputeStart:
			if e.Frame == 0 {
				computeOpen[e.Node] = openBatch{start: e.T, n: e.N}
			}
		case ComputeEnd:
			if e.Frame != 0 {
				out = append(out, chromeEvent{Name: "frame", Ph: "f", Ts: ts,
					Pid: pid, Tid: worker(e.Node), ID: flowID(e.Frame), BP: "e"})
				break
			}
			ob, ok := computeOpen[e.Node]
			if !ok {
				break
			}
			delete(computeOpen, e.Node)
			out = append(out, chromeEvent{Name: fmt.Sprintf("batch ×%d", ob.n), Ph: "X",
				Ts: ob.start * usPerSec, Dur: (e.T - ob.start) * usPerSec,
				Pid: pid, Tid: worker(e.Node)})
		case NodeDeath:
			tid := worker(e.Node)
			if ob, ok := computeOpen[e.Node]; ok {
				// The batch died with its worker: close the slice here.
				delete(computeOpen, e.Node)
				out = append(out, chromeEvent{Name: fmt.Sprintf("batch ×%d (stranded)", ob.n),
					Ph: "X", Ts: ob.start * usPerSec, Dur: (e.T - ob.start) * usPerSec,
					Pid: pid, Tid: tid})
			}
			out = append(out, chromeEvent{Name: "death", Ph: "i", Ts: ts,
				Pid: pid, Tid: tid, S: "t"})
		case SEFIStart:
			out = append(out, chromeEvent{Name: "SEFI", Ph: "X", Ts: ts,
				Dur: e.Dur * usPerSec, Pid: pid, Tid: worker(e.Node)})
		case OutageStart:
			outages[e.Edge] = openOutage{start: e.T, cause: e.Cause}
		case OutageEnd:
			ow, ok := outages[e.Edge]
			if !ok {
				break
			}
			delete(outages, e.Edge)
			out = append(out, chromeEvent{Name: "outage", Ph: "X",
				Ts: ow.start * usPerSec, Dur: (e.T - ow.start) * usPerSec,
				Pid: pid, Tid: tidISL, Args: outageArgs(ow, e.Edge)})
		case SpanDone:
			out = append(out, chromeEvent{Name: e.Name, Ph: "X",
				Ts: (e.T - e.Dur) * usPerSec, Dur: e.Dur * usPerSec,
				Pid: pid, Tid: tidFrames})
		case Throttle:
			out = append(out, chromeEvent{Name: fmt.Sprintf("throttle ×%.2f", e.Mult),
				Ph: "X", Ts: ts, Dur: e.Dur * usPerSec, Pid: pid, Tid: env(),
				Args: map[string]any{"rate_mult": e.Mult}})
		case BrownoutStart:
			brownout = &openBrownout{start: e.T, n: e.N, cause: e.Cause}
		case SLOAlert:
			out = append(out, chromeEvent{Name: fmt.Sprintf("SLO alert: %s", e.Name),
				Ph: "i", Ts: ts, Pid: pid, Tid: env(), S: "t",
				Args: map[string]any{"cause": e.Cause, "fast_burn": e.Mult, "window": e.N}})
		case BrownoutEnd:
			if brownout == nil {
				break
			}
			out = append(out, chromeEvent{Name: fmt.Sprintf("brownout −%d", brownout.n),
				Ph: "X", Ts: brownout.start * usPerSec, Dur: (e.T - brownout.start) * usPerSec,
				Pid: pid, Tid: env(),
				Args: map[string]any{"cause": brownout.cause, "workers_parked": brownout.n}})
			brownout = nil
		}
	}
	// Close windows still open at the end of the recording, edges in
	// sorted order for a deterministic export.
	openEdges := make([]string, 0, len(outages))
	for edge := range outages {
		openEdges = append(openEdges, edge)
	}
	sort.Strings(openEdges)
	for _, edge := range openEdges {
		ow := outages[edge]
		out = append(out, chromeEvent{Name: "outage", Ph: "X",
			Ts: ow.start * usPerSec, Dur: (lastT - ow.start) * usPerSec,
			Pid: pid, Tid: tidISL, Args: outageArgs(ow, edge)})
	}
	if brownout != nil {
		out = append(out, chromeEvent{Name: fmt.Sprintf("brownout −%d (open)", brownout.n),
			Ph: "X", Ts: brownout.start * usPerSec, Dur: (lastT - brownout.start) * usPerSec,
			Pid: pid, Tid: env(),
			Args: map[string]any{"cause": brownout.cause, "workers_parked": brownout.n}})
	}
	nodes := make([]int, 0, len(computeOpen))
	for n := range computeOpen {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		ob := computeOpen[n]
		out = append(out, chromeEvent{Name: fmt.Sprintf("batch ×%d (open)", ob.n),
			Ph: "X", Ts: ob.start * usPerSec, Dur: (lastT - ob.start) * usPerSec,
			Pid: pid, Tid: worker(n)})
	}
	return out
}

type openBatch struct {
	start float64
	n     int
}

type openOutage struct {
	start float64
	cause string
}

type openBrownout struct {
	start float64
	n     int
	cause string
}
