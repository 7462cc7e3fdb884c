package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"sudc/internal/obs/trace"
)

// FuzzDecodeJSONL pins the decoder's round-trip property: any input it
// accepts must re-encode (WriteJSONL) and decode again to the same
// recorder, and the re-encoding must be a fixed point. Inputs it
// rejects must fail without panicking.
func FuzzDecodeJSONL(f *testing.F) {
	var seed bytes.Buffer
	if err := sampleRecorder().WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"t":1,"k":"shed","f":3,"n":-1}`))
	f.Add([]byte(`{"scope":"r007","t":0.25,"k":"retry","f":1,"n":-1,"a":2,"b":4,"c":"isl-outage#1"}`))
	f.Add([]byte(`{"t":0,"k":"span","n":-1,"d":0.5,"sim":60,"name":"run"}`))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"t":1,"k":"warp_drive","n":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := trace.DecodeJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := rec.WriteJSONL(&out); err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		back, err := trace.DecodeJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back.Events(), rec.Events()) ||
			!reflect.DeepEqual(back.Scopes(), rec.Scopes()) {
			t.Fatal("round trip changed the recorder")
		}
		for _, s := range rec.Scopes() {
			if !reflect.DeepEqual(back.Child(s).Events(), rec.Child(s).Events()) {
				t.Fatalf("round trip changed scope %q", s)
			}
		}
		var out2 bytes.Buffer
		if err := back.WriteJSONL(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("encode is not a fixed point after one round trip")
		}
	})
}

// referenceJSONL encodes the recorder's root scope and its direct
// children with encoding/json, one json.Encoder.Encode(Line) per
// event: the output WriteJSONL must reproduce. It returns the first
// error.
func referenceJSONL(r *trace.Recorder) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	scopes := append([]string{""}, r.Scopes()...)
	for _, s := range scopes {
		src := r
		if s != "" {
			src = r.Child(s)
		}
		for _, e := range src.Events() {
			if err := enc.Encode(trace.Line{Scope: s, Event: e}); err != nil {
				return nil, err
			}
		}
	}
	return buf.Bytes(), nil
}

// checkAgainstReference fails unless WriteJSONL and referenceJSONL
// agree on the bytes, or both reject the recording.
func checkAgainstReference(t *testing.T, r *trace.Recorder) {
	t.Helper()
	want, wantErr := referenceJSONL(r)
	var got bytes.Buffer
	gotErr := r.WriteJSONL(&got)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("WriteJSONL error %v, encoding/json error %v", gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSONL differs from encoding/json:\n got %s\nwant %s", got.Bytes(), want)
	}
}

// FuzzWriteJSONL differentially tests the direct JSONL encoder against
// encoding/json: for any event fields and scope name, WriteJSONL must
// write exactly the bytes json.Encoder writes for each Line, and fail
// on exactly the inputs it fails on (NaN, ±Inf, unknown kinds).
func FuzzWriteJSONL(f *testing.F) {
	negZero := math.Copysign(0, -1)
	below := func(v float64) float64 { return math.Nextafter(v, 0) }
	f.Add(0.0, uint8(0), int64(1), 2, 0, 0, 0.0, 0.0, 0.0, 0.0, "", "", "", "", "")
	f.Add(negZero, uint8(5), int64(-3), -1, -4, -2, negZero, negZero, negZero, negZero,
		"isl-outage#1", "3-7", "space", "run", "r000")
	f.Add(1e-6, uint8(16), int64(0), -1, 0, 0, below(1e-6), 1e-7, -1e-7, 5e-324,
		"", "", "", "<span>&", "a/b")
	f.Add(1e21, uint8(20), int64(math.MaxInt64), math.MinInt, 1, 1, below(1e21), -1e21, 1.5e300, 123.456,
		"spill", "", "cloud", "", "r001")
	f.Add(math.NaN(), uint8(1), int64(1), 0, 0, 0, 0.0, 0.0, 0.0, 0.0, "", "", "", "", "")
	f.Add(1.0, uint8(1), int64(1), 0, 0, 0, math.Inf(1), 0.0, 0.0, 0.0, "", "", "", "", "")
	f.Add(1.0, uint8(1), int64(1), 0, 0, 0, 0.0, math.Inf(-1), 0.0, 0.0, "", "", "", "", "")
	f.Add(1.0, uint8(250), int64(1), 0, 0, 0, 0.0, 0.0, 0.0, 0.0, "", "", "", "", "")
	f.Add(2.5, uint8(21), int64(0), -1, 3, 0, 0.0, 600.0, 0.0, 4.2,
		"ctl\x00\x1f\x7f", "bad\xff\xfeutf8", "\u2028\u2029", "quote\"back\\slash", "<scope>&\t")
	f.Add(3.0, uint8(4), int64(2), 0, 0, 0, 0.0, 0.0, 0.0, 0.0, "a<b", "c>d", "&", "plain", ">")
	f.Fuzz(func(t *testing.T, tm float64, kind uint8, frame int64, node, n, attempt int,
		backoff, dur, sim, mult float64, cause, edge, tier, name, scope string) {
		e := trace.Event{T: tm, Kind: trace.Kind(kind), Frame: frame, Node: node, N: n,
			Attempt: attempt, Backoff: backoff, Dur: dur, Sim: sim, Mult: mult,
			Cause: cause, Edge: edge, Tier: tier, Name: name}
		r := trace.New(0)
		r.Record(e)
		checkAgainstReference(t, r)
		if scope != "" {
			r.Child(scope).Record(e)
			r.Child(scope).Record(trace.Event{T: 1, Kind: trace.Shed, Frame: 1, Node: -1})
			checkAgainstReference(t, r)
		}
	})
}

// TestWriteJSONLWritesEveryEventField sets every Event field, found by
// reflection, to a non-zero value and requires the encoded line to
// carry one member per field plus the scope — so a field added to
// Event but not to the direct encoder fails here.
func TestWriteJSONLWritesEveryEventField(t *testing.T) {
	var e trace.Event
	v := reflect.ValueOf(&e).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Float64:
			fv.SetFloat(float64(i) + 0.5)
		case reflect.Int, reflect.Int64:
			fv.SetInt(int64(i + 1))
		case reflect.Uint8:
			fv.SetUint(uint64(trace.Retry))
		case reflect.String:
			fv.SetString(fmt.Sprintf("field%d", i))
		default:
			t.Fatalf("Event field %s has kind %s, which this test cannot set", v.Type().Field(i).Name, fv.Kind())
		}
	}
	r := trace.New(0)
	r.Child("r000").Record(e)
	checkAgainstReference(t, r)
	var out bytes.Buffer
	if err := r.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &members); err != nil {
		t.Fatal(err)
	}
	if got, want := len(members), v.NumField()+1; got != want {
		t.Errorf("encoded line has %d members, want %d (every Event field plus scope): %s", got, want, out.Bytes())
	}
}
