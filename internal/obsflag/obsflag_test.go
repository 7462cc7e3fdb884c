package obsflag

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sudc/internal/obs/trace"
)

func TestRegisterDeclaresFourFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Register(fs)
	want := map[string]string{"metrics": "false", "trace": "false", "trace-out": "", "pprof": ""}
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		def, ok := want[fl.Name]
		if !ok {
			t.Errorf("unexpected flag -%s", fl.Name)
		} else if fl.DefValue != def {
			t.Errorf("-%s default %q, want %q", fl.Name, fl.DefValue, def)
		}
	})
	if n != len(want) {
		t.Errorf("Register declares %d flags, want %d", n, len(want))
	}
}

func TestNoFlagNoRegistry(t *testing.T) {
	f := Register(flag.NewFlagSet("t", flag.ContinueOnError))
	var out strings.Builder
	if err := f.Start(&out); err != nil {
		t.Fatal(err)
	}
	if f.Reg != nil || f.Rec != nil {
		t.Error("with no flag set, Start must build nothing")
	}
	if err := f.Finish(&out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("with no flag set, nothing is printed; got %q", out.String())
	}
}

func TestMetricsTraceAndTraceOut(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := fs.Parse([]string{"-metrics", "-trace", "-trace-out", path}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := f.Start(&out); err != nil {
		t.Fatal(err)
	}
	f.Reg.StartSpan("stage").End()
	if err := f.Finish(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"trace stage wall=",
		"\nmetrics:\n",
		"span stage count=1",
		"wall_ms=",
		"\ntrace: wrote 1 events to " + path + "\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	rec, err := trace.DecodeJSONL(file)
	if err != nil {
		t.Fatalf("written recording does not decode: %v", err)
	}
	if rec.Len() != 1 || rec.Events()[0].Name != "stage" {
		t.Errorf("recording holds %d events, want the one span", rec.Len())
	}
}
