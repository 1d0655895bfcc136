package main

import (
	"fmt"
	"strings"
)

// calibrate is -repeat N: the timed suite run N times, each time with
// another seed, and for every (end-to-end metric, workload) cell the
// median, (max-min)/median, and the spread the regression gate uses —
// the distance between the first and third quartile as a share of the
// median. The table is Markdown; CALIBRATION.md is this output.
func calibrate(o options, ws []*workloadSpec) error {
	cells := map[string][]float64{} // "metric@workload" -> one value per repetition
	for i := 0; i < o.repeat; i++ {
		ro := o
		ro.seed = o.seed + int64(i)
		for _, w := range ws {
			r, err := runTimed(w, ro)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !r.correct() {
				return fmt.Errorf("%s: %d of %d RPCs failed, faults %v", w.name, r.Failed, r.Attempted, r.Faults)
			}
			for name, v := range r.Metrics {
				key := name + "@" + w.name
				cells[key] = append(cells[key], v)
			}
			fmt.Printf("<!-- repetition %d seed %d %s done -->\n", i+1, ro.seed, w.name)
		}
	}
	fmt.Printf("\n%d repetitions of %d trials x %.1f s, seeds %d..%d; %s\n\n",
		o.repeat, o.trials, o.trial, o.seed, o.seed+int64(o.repeat)-1, hostFacts())
	fmt.Println("| metric | workload | median | (max-min)/median | IQR/median | bound | values |")
	fmt.Println("|---|---|---:|---:|---:|---:|---|")
	for _, d := range endToEnd {
		for _, w := range ws {
			vs := cells[d.Name+"@"+w.name]
			med := median(vs)
			lo, hi := minMax(vs)
			iqr := "n/a"
			if len(vs) >= 2 {
				q1, q3 := quartiles(vs)
				iqr = fmt.Sprintf("%.3f", (q3-q1)/med)
			}
			strs := make([]string, len(vs))
			for i, v := range vs {
				strs[i] = fmt.Sprintf("%.4g", v)
			}
			fmt.Printf("| %s | %s | %.4g | %.3f | %s | %.2f | %s |\n",
				d.Name, w.name, med, (hi-lo)/med, iqr, d.Bound, strings.Join(strs, " "))
		}
	}
	return nil
}
