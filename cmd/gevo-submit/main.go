// Command gevo-submit is the CLI client for gevo-serve: it submits search
// jobs, follows their progress over SSE, and queries or cancels existing
// jobs.
//
// Usage:
//
//	gevo-submit -server http://127.0.0.1:8080 -workload adept-v0 \
//	    -demes 2 -pop 8 -gens 12 -seed 1 -wait
//	gevo-submit -list
//	gevo-submit -status j0123456789abcdef
//	gevo-submit -result j0123456789abcdef
//	gevo-submit -costs j0123456789abcdef
//	gevo-submit -diag j0123456789abcdef
//	gevo-submit -cancel j0123456789abcdef
//
// Submitting the same spec twice attaches to the same job (single-flight);
// a spec the server has already finished answers instantly from the job's
// retained record.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gevo/internal/gpu"
	"gevo/internal/serve"
	"gevo/internal/serve/client"
	"gevo/internal/workload"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gevo-submit:", err)
	os.Exit(1)
}

func emit(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// printOps renders the per-operator contribution table on stderr (the JSON
// document goes to stdout untouched, so pipelines keep working).
func printOps(doc *serve.DiagDoc) {
	if len(doc.Ops) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%-20s %9s %9s %9s %12s %12s\n",
		"operator", "attempts", "valid", "improved", "discoveries", "delta_ms")
	for _, o := range doc.Ops {
		fmt.Fprintf(os.Stderr, "%-20s %9d %9d %9d %12d %12.4f\n",
			o.Op, o.Attempts, o.Valid, o.Improved, o.Discoveries, o.DeltaMs)
	}
}

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "gevo-serve base URL")
	wl := flag.String("workload", "adept-v0", "workload: "+workload.CLINames)
	archs := flag.String("archs", "P100", "comma-separated GPU list cycled across demes ("+strings.Join(gpu.ArchNames(), ", ")+")")
	demes := flag.Int("demes", 2, "islands in the ring")
	pop := flag.Int("pop", 8, "population size per deme")
	gens := flag.Int("gens", 12, "generations per deme")
	interval := flag.Int("interval", 4, "generations between migrations")
	k := flag.Int("k", 1, "elites migrated per migration")
	seed := flag.Uint64("seed", 1, "master seed")
	mut := flag.Float64("mut", 0.5, "mutation rate")
	cross := flag.Float64("cross", 0.8, "crossover rate")
	wait := flag.Bool("wait", false, "stream progress and block until the job ends")
	list := flag.Bool("list", false, "list jobs instead of submitting")
	status := flag.String("status", "", "show one job's status instead of submitting")
	result := flag.String("result", "", "fetch one job's result instead of submitting")
	cancel := flag.String("cancel", "", "cancel one job instead of submitting")
	diagID := flag.String("diag", "", "show one job's diagnosis (operator table + kernel report) instead of submitting")
	costsID := flag.String("costs", "", "show one job's cost account (evals, launches, cache hits charged to it) instead of submitting")
	retries := flag.Int("retries", 2, "retry transient failures (connection refused, 429, 5xx) this many times")
	retryMaxWait := flag.Duration("retry-max-wait", 2*time.Second, "cap on the backoff between retries")
	flag.Parse()

	c := client.New(*server)
	c.Retries = *retries
	c.RetryMaxWait = *retryMaxWait
	ctx := context.Background()

	switch {
	case *list:
		jobs, err := c.List(ctx)
		if err != nil {
			fatal(err)
		}
		emit(jobs)
	case *status != "":
		st, err := c.Get(ctx, *status)
		if err != nil {
			fatal(err)
		}
		emit(st)
	case *result != "":
		res, err := c.Result(ctx, *result)
		if err != nil {
			fatal(err)
		}
		emit(res)
	case *cancel != "":
		st, err := c.Cancel(ctx, *cancel)
		if err != nil {
			fatal(err)
		}
		emit(st)
	case *diagID != "":
		doc, err := c.Diag(ctx, *diagID)
		if err != nil {
			fatal(err)
		}
		printOps(doc)
		emit(doc)
	case *costsID != "":
		doc, err := c.Costs(ctx, *costsID)
		if err != nil {
			fatal(err)
		}
		emit(doc)
	default:
		spec := serve.JobSpec{
			Workload:          *wl,
			Archs:             strings.Split(*archs, ","),
			Demes:             *demes,
			Pop:               *pop,
			Generations:       *gens,
			MigrationInterval: *interval,
			MigrationSize:     *k,
			Seed:              *seed,
			MutationRate:      mut,
			CrossoverRate:     cross,
		}
		st, err := c.Submit(ctx, spec)
		if err != nil {
			fatal(err)
		}
		if !*wait || st.State.Terminal() {
			emit(st)
			if st.State == serve.StateFailed {
				os.Exit(1)
			}
			return
		}
		fmt.Fprintf(os.Stderr, "gevo-submit: job %s %s (submission #%d, trace %s)\n", st.ID, st.State, st.Submits, st.Trace)
		final, err := c.WaitDone(ctx, st.ID, func(ev serve.Event) {
			if ev.Type != "progress" {
				return
			}
			fmt.Fprintf(os.Stderr, "gevo-submit: gen %3d/%d best %.3fx (deme %d, %d evals, span %s)\n",
				ev.Job.Gen, ev.Job.Spec.Generations, ev.Job.BestSpeedup, ev.Job.BestDeme, ev.Job.Evaluations, ev.Span)
		})
		if err != nil {
			fatal(err)
		}
		emit(final)
		if final.State == serve.StateFailed {
			os.Exit(1)
		}
	}
}
