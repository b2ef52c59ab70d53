// Command experiments regenerates every table and figure of the paper's
// evaluation section (§V) from the scaled synthetic datasets, with every
// modeled time projected to the paper's real input sizes.
//
//	experiments -list                 # show available experiments
//	experiments -run fig6a            # one experiment
//	experiments -run all              # the full evaluation
//	experiments -run all -scale 0.1   # a quick pass at 1/10 size
//	experiments -run convergence      # the headline ratios projected from
//	                                  # ¼, ½ and 1 of the input, with the
//	                                  # drift per doubling
//
// EXPERIMENTS.md records the paper-vs-measured comparison for each.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"dedukt/internal/expt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and runs the experiments they select, writing the
// reports to out. A bad argument is refused before any experiment runs.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list  = fs.Bool("list", false, "list experiments and exit")
		id    = fs.String("run", "", `experiment id, or "all"`)
		scale = fs.Float64("scale", 1.0, "dataset scale factor (1.0 = default scaled sizes); must be positive")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}

	if *list {
		for _, e := range expt.All() {
			fmt.Fprintf(out, "%-11s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *id == "" {
		return errors.New("use -list, or -run <id|all>")
	}
	if *scale <= 0 {
		return fmt.Errorf("-scale %v: the scale must be positive", *scale)
	}

	opts := expt.Options{Out: out, Scale: *scale}
	var todo []expt.Experiment
	if *id == "all" {
		todo = expt.All()
	} else {
		e, err := expt.ByID(*id)
		if err != nil {
			return err
		}
		todo = []expt.Experiment{e}
	}
	for i, e := range todo {
		if i > 0 {
			fmt.Fprintln(out)
		}
		start := time.Now()
		if err := e.Run(opts); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(out, "[%s completed in %.1fs]\n", e.ID, time.Since(start).Seconds())
	}
	return nil
}
