package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sudc/internal/obs/trace"
	"sudc/internal/obsflag"
)

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

func TestList(t *testing.T) {
	out := runCmd(t, "-list")
	for _, want := range []string{"Table III", "Figure 5", "Ablation A1", "Extension E5"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q", want)
		}
	}
	// -list must not actually run anything (fast, no tables).
	if strings.Contains(out, "---") {
		t.Error("-list should not render tables")
	}
}

func TestOnly(t *testing.T) {
	out := runCmd(t, "-only", "Figure 12")
	if !strings.Contains(out, "Figure 12") || !strings.Contains(out, "45 °C") {
		t.Errorf("Figure 12 output malformed:\n%s", out)
	}
	if strings.Contains(out, "Figure 5 —") {
		t.Error("-only must run a single exhibit")
	}
	// -only reaches ablations and extensions too.
	out = runCmd(t, "-only", "Ablation A3")
	if !strings.Contains(out, "gridded ion") {
		t.Error("-only must reach ablations")
	}
}

func TestOnlyUnknown(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-only", "Figure 99"}, &b); err == nil {
		t.Error("unknown exhibit must error")
	}
}

func TestAblationsFlag(t *testing.T) {
	out := runCmd(t, "-ablations")
	if !strings.Contains(out, "Ablation A1") || !strings.Contains(out, "Ablation A7") {
		t.Error("-ablations must run all ablation studies")
	}
	if strings.Contains(out, "Figure 5 —") {
		t.Error("-ablations must not run paper exhibits")
	}
}

func TestParallelGoldenOutput(t *testing.T) {
	// The output must be byte-identical for any worker count, across
	// paper exhibits and extensions alike; -workers 1 is the serial run.
	serial := runCmd(t, "-workers", "1")
	for _, w := range []string{"2", "8"} {
		if got := runCmd(t, "-workers", w); got != serial {
			t.Errorf("-workers %s output differs from -workers 1", w)
		}
	}
	serialExt := runCmd(t, "-extensions", "-workers", "1")
	for _, w := range []string{"2", "8"} {
		if got := runCmd(t, "-extensions", "-workers", w); got != serialExt {
			t.Errorf("-extensions -workers %s output differs from -workers 1", w)
		}
	}
}

func TestMetricsFlagSerial(t *testing.T) {
	out := runCmd(t, "-only", "Figure 12", "-metrics")
	for _, want := range []string{
		"metrics:",
		"span experiments/Figure 12 count=1",
		"wall_ms=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsFlagParallelRecordsEngine(t *testing.T) {
	// Every run goes through the parallel engine, so -metrics always
	// reports its counters.
	out := runCmd(t, "-only", "Figure 12", "-metrics")
	for _, want := range []string{
		"counter experiments/exhibits 1",
		"counter par/runs",
		"counter par/items",
		"span experiments/Figure 12 count=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}
	// The observer must be uninstalled on return: a later run without
	// -metrics prints no metrics section.
	if plain := runCmd(t, "-only", "Figure 12"); strings.Contains(plain, "metrics:") {
		t.Error("metrics must be opt-in per invocation")
	}
}

func TestTraceFlag(t *testing.T) {
	out := runCmd(t, "-only", "Figure 12", "-trace")
	if !strings.Contains(out, "trace experiments/Figure 12 wall=") {
		t.Errorf("-trace must stream the exhibit span:\n%s", out)
	}
	if strings.Contains(out, "metrics:") {
		t.Error("-trace alone must not append the snapshot")
	}
}

func TestBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-bogus"}, &b); err == nil {
		t.Error("unknown flag must error")
	}
}

func TestTraceOutRecordsExhibitSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	out := runCmd(t, "-only", "Table III", "-trace-out", path)
	if !strings.Contains(out, "trace: wrote") {
		t.Errorf("-trace-out must confirm the write:\n%s", out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := trace.DecodeJSONL(f)
	if err != nil {
		t.Fatalf("written trace does not decode: %v", err)
	}
	var found bool
	for _, e := range rec.Events() {
		if e.Kind == trace.SpanDone && e.Name == "experiments/Table III" {
			found = true
		}
	}
	if !found {
		t.Errorf("trace missing the exhibit span; %d events", rec.Len())
	}
}

func TestSharedObsFlags(t *testing.T) {
	// experiments declares no observability flag itself: its -h output
	// carries package obsflag's four blocks — name, type, usage, and
	// default — exactly.
	var usage strings.Builder
	if err := run([]string{"-h"}, &usage); err != flag.ErrHelp {
		t.Fatalf("-h: got %v, want flag.ErrHelp", err)
	}
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	obsflag.Register(shared)
	shared.VisitAll(func(fl *flag.Flag) {
		one := flag.NewFlagSet("one", flag.ContinueOnError)
		var block bytes.Buffer
		one.SetOutput(&block)
		one.Var(fl.Value, fl.Name, fl.Usage)
		one.PrintDefaults()
		if !strings.Contains(usage.String(), block.String()) {
			t.Errorf("usage lacks the shared flag block:\n%s", block.String())
		}
	})
}
