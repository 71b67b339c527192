// Command mutps-bench regenerates the paper's evaluation tables and
// figures on the simulated substrate.
//
// Usage:
//
//	mutps-bench -list
//	mutps-bench -fig 7            # one experiment at quick scale
//	mutps-bench -fig all -full    # everything at the paper's geometry
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mutps/internal/bench"
)

func main() {
	fig := flag.String("fig", "", "experiment id (e.g. 2a, 7, 13b, tab1, tuner-ablation) or 'all'")
	full := flag.Bool("full", false, "use the paper's full geometry (28 cores, 42 MB LLC, 10M keys); slower")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	if *list || *fig == "" {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %s\n", e.ID)
		}
		if *fig == "" && !*list {
			os.Exit(2)
		}
		return
	}

	scale := bench.QuickScale()
	if *full {
		scale = bench.FullScale()
	}
	fmt.Printf("scale: %s (%d cores, %d keys)\n\n", scale.Name, scale.HW.Cores, scale.Keys)

	want := strings.Split(*fig, ",")
	ran := 0
	for _, e := range bench.Experiments() {
		if *fig != "all" && !contains(want, e.ID) {
			continue
		}
		start := time.Now()
		e.Run(scale, os.Stdout)
		fmt.Printf("  [%s finished in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *fig)
		os.Exit(2)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
