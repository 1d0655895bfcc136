// Command erpc-bench regenerates the eRPC paper's tables and figures
// on the simulated substrates.
//
// Usage:
//
//	erpc-bench -list
//	erpc-bench -exp fig4              # one experiment, full scale
//	erpc-bench -exp tab5 -scale 0.25  # quick run
//	erpc-bench -all                   # everything (slow: many minutes)
//
// Each report prints the paper's reported value next to the measured
// value. Absolute equality is not the goal (the substrate is a
// simulator); the shape — who wins, by what factor, where crossovers
// fall — is.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id(s), comma separated (see -list)")
		scale = flag.Float64("scale", 1.0, "scale factor: <1 shrinks clusters and windows")
		seed  = flag.Int64("seed", 42, "simulation seed")
		all   = flag.Bool("all", false, "run every experiment")
		list  = flag.Bool("list", false, "list experiment ids")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	opts := experiments.Options{Scale: *scale, Seed: *seed}
	if *all {
		experiments.RunAll(os.Stdout, opts)
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "erpc-bench: need -exp <id>, -all or -list")
		flag.Usage()
		os.Exit(2)
	}
	for _, id := range strings.Split(*exp, ",") {
		fn, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "erpc-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fn(opts).Print(os.Stdout)
	}
}
