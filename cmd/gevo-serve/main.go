// Command gevo-serve runs the search-as-a-service job server: a REST/SSE
// API over the serve.Manager, which schedules many concurrent optimization
// searches fair-share over one shared evaluation pool and persists every
// job's progress so a killed server resumes all in-flight jobs
// bit-identically on restart.
//
// Usage:
//
//	gevo-serve -addr 127.0.0.1:8080 -dir ./serve-state
//
// Submit and follow jobs with gevo-submit, or curl the API directly
// (README "Run it as a service").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gevo/internal/fault"
	"gevo/internal/obs"
	"gevo/internal/serve"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gevo-serve:", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	dir := flag.String("dir", "serve-state", "durable state directory ('' = in-memory only, no crash resume)")
	workers := flag.Int("workers", 0, "shared evaluation-pool workers (0 = GOMAXPROCS)")
	executors := flag.Int("executors", 2, "jobs advancing a slice concurrently")
	cacheSize := flag.Int("cache", 64, "finished job records retained (least recently submitted pruned first)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	maxJobs := flag.Int("max-jobs", 0, "max queued+running jobs before submissions shed with 429 (0 = unlimited)")
	faults := flag.String("faults", "", "deterministic fault-injection schedule, e.g. 'eval.dispatch:panic@3;persist.write:error/5' (chaos testing; '' = off)")
	postmortem := flag.String("postmortem", "", "crash postmortem path: a panic dumps the flight-recorder journal + metrics there before dying ('' = <dir>/postmortem.json, or off when in-memory)")
	flag.Parse()

	var inj *fault.Injector
	if *faults != "" {
		var err error
		if inj, err = fault.Parse(*faults); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gevo-serve: fault injection armed: %s\n", *faults)
	}

	pmPath := *postmortem
	if pmPath == "" && *dir != "" {
		pmPath = filepath.Join(*dir, "postmortem.json")
	}

	// Bridge the Go runtime into the scrape surface: goroutines, heap, GC
	// cost and pause/latency distributions alongside the gevo_* series.
	obs.RegisterRuntimeMetrics(obs.Default)

	m, err := serve.Open(serve.Options{
		Dir: *dir, Workers: *workers, Executors: *executors, CacheSize: *cacheSize,
		MaxActiveJobs: *maxJobs, Inject: inj, PostmortemPath: pmPath,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: serve.NewServerWith(m, serve.ServerOptions{EnablePprof: *enablePprof, Inject: inj})}
	b := obs.Build()
	fmt.Fprintf(os.Stderr, "gevo-serve: version %s (%s)\n", b.Version, b.Go)
	fmt.Fprintf(os.Stderr, "gevo-serve: listening on http://%s (state: %s)\n", ln.Addr(), stateDesc(*dir))

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "gevo-serve: %v, shutting down\n", s)
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
	// Graceful drain is a courtesy: durability never depends on it — every
	// slice already checkpointed before its progress became visible.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	m.Close()
}

func stateDesc(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
