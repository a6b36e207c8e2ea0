package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// compareMain implements bench -compare A.json B.json: A is the baseline.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
		return 2
	}
	var accs [2]*account
	for i, path := range args {
		blob, err := os.ReadFile(path)
		if err == nil {
			accs[i] = &account{}
			err = json.Unmarshal(blob, accs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	if breaches := compareAccounts(os.Stdout, accs[0], accs[1]); breaches > 0 {
		fmt.Printf("%d breach(es)\n", breaches)
		return 1
	}
	fmt.Println("within bounds")
	return 0
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction: positive is worse whether lower or higher is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = b
	}
	d := (b - a) / a
	if better == "higher" {
		d = -d
	}
	return d
}

func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// compareAccounts prints, per workload and end-to-end metric, both values,
// the relative change and the bound, then the exact counts, and returns the
// number of breaches: an end-to-end metric worse in b than in a by more
// than its bound, an exact count that differs at all, a failed operation,
// or a workload missing from one side.
func compareAccounts(w io.Writer, a, b *account) int {
	breaches := 0
	byName := map[string]*entry{}
	for _, e := range b.Workloads {
		byName[e.Name] = e
	}
	fmt.Fprintf(w, "%-18s %-24s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "change", "bound")
	for _, ea := range a.Workloads {
		eb := byName[ea.Name]
		if eb == nil || ea.Timed == nil || ea.Traced == nil || eb.Timed == nil || eb.Traced == nil {
			fmt.Fprintf(w, "%-18s missing or dead on one side  BREACH\n", ea.Name)
			breaches++
			continue
		}
		for _, d := range endToEnd {
			va, vb := ea.Timed.Metrics[d.name].Value, eb.Timed.Metrics[d.name].Value
			worse := worsening(va, vb, d.better)
			mark := ""
			if worse > d.bound {
				mark = "  BREACH"
				breaches++
			}
			if d.exact && va != vb {
				mark += "  (exact metric differs)"
			}
			fmt.Fprintf(w, "%-18s %-24s %14s %14s %+8.2f%% %6.0f%%%s\n",
				ea.Name, d.name+" ("+d.unit+")", fmtVal(va), fmtVal(vb), 100*(vb-va)/nonZero(va), 100*d.bound, mark)
		}
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			va, vb := ea.Traced.Metrics[d.name].Value, eb.Traced.Metrics[d.name].Value
			if va != vb {
				fmt.Fprintf(w, "%-18s %-24s %14s %14s  exact count differs  BREACH\n", ea.Name, d.name, fmtVal(va), fmtVal(vb))
				breaches++
			}
		}
		if ea.Timed.Digest != eb.Timed.Digest {
			fmt.Fprintf(w, "%-18s %-24s %14s %14s  results differ  BREACH\n", ea.Name, "digest", ea.Timed.Digest, eb.Timed.Digest)
			breaches++
		}
		for side, e := range []*entry{ea, eb} {
			if e.Failed > 0 {
				fmt.Fprintf(w, "%-18s %-24s side %c: %d of %d operations failed  BREACH\n", ea.Name, "fail_share", 'A'+side, e.Failed, e.Attempted)
				breaches++
			}
		}
	}
	return breaches
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
