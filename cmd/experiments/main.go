// Command experiments regenerates the paper's tables and figures on the
// simulated GPUs. With no flags it runs everything at the full scale;
// individual flags select single experiments, -quick shrinks budgets.
//
// Usage:
//
//	experiments [-quick] [-table1] [-fig4] [-fig5] [-fig6] [-fig7] [-fig8]
//	            [-fig10] [-ballot] [-generality] [-minimize] [-simcov]
package main

import (
	"flag"
	"fmt"
	"os"

	"gevo/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "use benchmark-scale budgets")
	table1 := flag.Bool("table1", false, "Table I: GPU characteristics")
	fig4 := flag.Bool("fig4", false, "Fig 4: ADEPT speedups")
	fig5 := flag.Bool("fig5", false, "Fig 5: SIMCoV speedups")
	fig6 := flag.Bool("fig6", false, "Fig 6: run-to-run distribution (live searches)")
	fig7 := flag.Bool("fig7", false, "Fig 7: epistatic subsets and dependencies")
	fig8 := flag.Bool("fig8", false, "Fig 8: cluster assembly sequence")
	fig10 := flag.Bool("fig10", false, "Fig 10: boundary checks, fault, padding")
	ballot := flag.Bool("ballot", false, "Sec VI-B: ballot_sync removal per GPU")
	generality := flag.Bool("generality", false, "Sec IV: cross-GPU edit portability")
	minimize := flag.Bool("minimize", false, "Sec V: Algorithms 1+2 pipeline")
	simcovTable := flag.Bool("simcov", false, "SIMCoV per-step epidemiological table (base program, P100)")
	flag.Parse()

	sc := experiments.Full
	if *quick {
		sc = experiments.Quick
	}
	all := !(*table1 || *fig4 || *fig5 || *fig6 || *fig7 || *fig8 || *fig10 || *ballot || *generality || *minimize || *simcovTable)

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
		os.Exit(1)
	}

	if all || *table1 {
		fmt.Println(experiments.Table1())
	}
	if all || *fig4 {
		_, rep, err := experiments.Fig4(sc)
		if err != nil {
			fail("fig4", err)
		}
		fmt.Println(rep)
	}
	if all || *fig5 {
		_, rep, err := experiments.Fig5(sc)
		if err != nil {
			fail("fig5", err)
		}
		fmt.Println(rep)
	}
	if all || *simcovTable {
		rep, err := experiments.SIMCoVSteps(sc)
		if err != nil {
			fail("simcov", err)
		}
		fmt.Println(rep)
	}
	if all || *fig6 {
		for _, simcov := range []bool{false, true} {
			_, rep, err := experiments.Fig6(sc, simcov)
			if err != nil {
				fail("fig6", err)
			}
			fmt.Println(rep)
		}
	}
	if all || *fig7 {
		rep, err := experiments.Fig7(sc)
		if err != nil {
			fail("fig7", err)
		}
		fmt.Println(rep)
	}
	if all || *fig8 {
		rep, err := experiments.Fig8(sc, !*quick)
		if err != nil {
			fail("fig8", err)
		}
		fmt.Println(rep)
	}
	if all || *ballot {
		rep, err := experiments.Ballot(sc)
		if err != nil {
			fail("ballot", err)
		}
		fmt.Println(rep)
	}
	if all || *fig10 {
		rep, err := experiments.Fig10(sc)
		if err != nil {
			fail("fig10", err)
		}
		fmt.Println(rep)
	}
	if all || *generality {
		rep, err := experiments.Generality(sc)
		if err != nil {
			fail("generality", err)
		}
		fmt.Println(rep)
	}
	if all || *minimize {
		junk := 10
		if *quick {
			junk = 4
		}
		rep, err := experiments.MinimizeDemo(sc, junk)
		if err != nil {
			fail("minimize", err)
		}
		fmt.Println(rep)
	}
}
