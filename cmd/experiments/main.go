// Command experiments regenerates the paper's evaluation: every table and
// figure, printed as text tables.
//
// Usage:
//
//	experiments             # run all paper exhibits
//	experiments -list       # list exhibit IDs
//	experiments -only "Figure 5"
//	experiments -ablations  # run the design-choice ablation studies
//	experiments -extensions # run the beyond-the-paper extension studies
//	experiments -workers 4  # exhibits evaluated concurrently (default
//	                        # GOMAXPROCS; 1 runs them one at a time)
//	experiments -metrics    # append per-exhibit timing + engine metrics
//	experiments -trace      # stream span trace lines as exhibits finish
//	experiments -trace-out f.jsonl  # record span events as JSONL (sudcmon -load)
//	experiments -pprof localhost:6060
//
// Every table is collected before any is printed, so the output is
// byte-identical for any -workers value; only wall-clock time changes.
// -metrics, -trace, -trace-out and -pprof are shared with sudcsim and
// sudctool through package obsflag.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sudc/internal/experiments"
	"sudc/internal/obs"
	"sudc/internal/obsflag"
	"sudc/internal/par"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	list := fs.Bool("list", false, "list exhibit IDs and exit")
	only := fs.String("only", "", "run a single exhibit by ID (e.g. \"Figure 5\")")
	ablations := fs.Bool("ablations", false, "run the design-choice ablation studies instead")
	extensions := fs.Bool("extensions", false, "run the beyond-the-paper extension studies instead")
	workers := fs.Int("workers", 0, "exhibits evaluated concurrently (0 = GOMAXPROCS, 1 = one at a time); output is identical for any value")
	of := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := of.Start(out); err != nil {
		return err
	}
	if reg := of.Reg; reg != nil {
		// The DSE behind Figure 17 and the parallel engine report through
		// process-wide hooks; uninstall them on return so run() stays
		// reusable (tests call it repeatedly in one process).
		obs.SetGlobal(reg)
		defer obs.SetGlobal(nil)
		par.SetObserver(obs.NewEngineMetrics(reg.Scope("par")))
		defer par.SetObserver(nil)
	}

	everything := append(append(experiments.All(), experiments.Ablations()...),
		experiments.Extensions()...)

	if *list {
		for _, e := range everything {
			fmt.Fprintf(out, "%-13s %s\n", e.ID, e.Name)
		}
		return nil
	}

	toRun := experiments.All()
	switch {
	case *ablations:
		toRun = experiments.Ablations()
	case *extensions:
		toRun = experiments.Extensions()
	}
	if *only != "" {
		toRun = nil
		for _, e := range everything {
			if strings.EqualFold(e.ID, *only) {
				toRun = []experiments.Experiment{e}
				break
			}
		}
		if toRun == nil {
			return fmt.Errorf("unknown exhibit %q", *only)
		}
	}

	// Collect every table before printing so the output is byte-identical
	// for any worker count, whatever the completion order.
	tables, err := experiments.RunAllObserved(toRun, *workers, of.Reg)
	if err != nil {
		return err
	}
	for _, tbl := range tables {
		fmt.Fprintln(out, tbl)
	}
	return of.Finish(out)
}
