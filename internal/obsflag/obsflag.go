// Package obsflag declares the observability flags sudcsim, sudctool
// and experiments share — -metrics, -trace, -trace-out and -pprof — and
// does what they ask for: it builds the registry and the span/lineage
// recording, starts the pprof server, and at the end prints the metric
// snapshot and writes the JSONL recording. The four flags therefore
// mean the same thing, with the same defaults and usage text, under
// every command.
package obsflag

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sudc/internal/obs"
	"sudc/internal/obs/trace"
)

// Flags holds the parsed observability flags and, after Start, what
// they built.
type Flags struct {
	Metrics, Trace  bool
	TraceOut, Pprof string

	// Reg is the run's registry. It stays nil when no flag is set, so
	// every instrumented call costs one nil check.
	Reg *obs.Registry
	// Rec is the -trace-out recording (nil without the flag). Spans land
	// in it; a simulation also records its frame lineage into it.
	Rec *trace.Recorder
}

// Register declares the observability flags on fs and returns the
// values they parse into.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.BoolVar(&f.Metrics, "metrics", false, "print the metric snapshot, stage wall times included, at the end")
	fs.BoolVar(&f.Trace, "trace", false, "stream span trace lines as stages complete")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the span (and simulated frame-lineage) recording to this JSONL file; analyze with sudcmon -load")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	return f
}

// Start builds the registry when any flag is set, streams -trace span
// lines to w, attaches the -trace-out recording, and starts the -pprof
// server, announcing its address on w.
func (f *Flags) Start(w io.Writer) error {
	if f.Metrics || f.Trace || f.TraceOut != "" || f.Pprof != "" {
		f.Reg = obs.New()
		if f.Trace {
			f.Reg.SetTraceWriter(w)
		}
	}
	if f.TraceOut != "" {
		f.Rec = trace.New(0)
		f.Reg.SetSpanSink(f.Rec)
	}
	if f.Pprof != "" {
		addr, err := obs.StartPprof(f.Pprof, f.Reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "pprof: serving on http://%s/debug/pprof/\n", addr)
	}
	return nil
}

// Finish prints the -metrics snapshot to w — with wall times: the
// output is for people, not golden files — and writes the -trace-out
// recording, confirming the write on w.
func (f *Flags) Finish(w io.Writer) error {
	if f.Metrics {
		fmt.Fprintf(w, "\nmetrics:\n%s", f.Reg.Snapshot(obs.WithWall()).String())
	}
	if f.TraceOut == "" {
		return nil
	}
	file, err := os.Create(f.TraceOut)
	if err != nil {
		return err
	}
	if err := f.Rec.WriteJSONL(file); err != nil {
		file.Close()
		return err
	}
	if err := file.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntrace: wrote %d events to %s\n", f.Rec.TotalLen(), f.TraceOut)
	return nil
}
