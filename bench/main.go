// Command bench is the repository's benchmark: five workloads, each
// measured end to end with tracing off and layer by layer in a separate
// traced run, with the outputs checked. See README.md.
//
// With -workload it runs that one workload once (the form BENCHMARK.json's
// command takes) and prints one JSON object as the last line of standard
// output. Without it, it runs every workload both ways, each in a child
// process under a deadline, reconciles the two runs and prints the whole
// account. With -compare it compares two such accounts.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// parallelism is P: pool workers, serve executors and client goroutines are
// each this many.
func parallelism() int { return min(runtime.NumCPU(), 4) }

// result is the last line of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// reportPrefix starts the line carrying a single-workload run's full
// report, which the all-workloads run reads back from its children.
const reportPrefix = "report "

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload ("+workloadNames()+"); default: all, timed and traced")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "how long the timed rounds measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		traceDir = flag.String("trace-dir", "", "where the traced run writes its Chrome trace (default: a new temp dir)")
		out      = flag.String("out", "", "all-workloads run: also write the account as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two accounts: bench -compare A.json B.json")
	)
	flag.Parse()
	switch {
	case *compare:
		os.Exit(compareMain(flag.Args()))
	case *name != "":
		os.Exit(runOne(*name, *seed, *seconds, *trace != 0, *traceDir))
	default:
		os.Exit(runAll(*seed, *seconds, *traceDir, *out))
	}
}

// deadlineFor is three times what a run is expected to take (set-up and
// probes are worth about as much again as the measured seconds), inside the
// 180 s a single run is allowed.
func deadlineFor(seconds float64) time.Duration {
	d := time.Duration(3 * (2*seconds + 10) * float64(time.Second))
	return min(d, 170*time.Second)
}

// runOne runs one workload in this process. A hang or a panic becomes a
// nonzero exit without a result line, never a stuck run.
func runOne(name string, seed uint64, seconds float64, traced bool, traceDir string) (code int) {
	def := workloadByName(name)
	if def == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (known: %s)\n", name, workloadNames())
		return 2
	}
	root, err := os.MkdirTemp("", "gevo-bench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(root)
	watchdog := time.AfterFunc(deadlineFor(seconds), func() {
		fmt.Fprintf(os.Stderr, "bench: %s: deadline of %v passed, giving up\n", name, deadlineFor(seconds))
		os.RemoveAll(root)
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: panic: %v\n%s", name, r, debug.Stack())
			code = 3
		}
	}()

	p := parallelism()
	var rep *report
	if traced {
		rep, err = runTraced(def, seed, p, seconds, root, traceDir)
	} else {
		rep, err = runTimed(def, seed, p, seconds, root)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s\n", name, f)
	}
	printReport(os.Stdout, rep)
	blob, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s%s\n", reportPrefix, blob)
	last, err := json.Marshal(result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(last))
	return 0
}

// printReport prints one run for a reader: every metric by name with its
// unit, the sample counts behind them, and the traced run's time budget.
func printReport(w *os.File, rep *report) {
	mode, defs := "timed (tracing off)", endToEnd
	if rep.Trace {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d  P=%d (closed loop, %d goroutine(s) driving)  %s\n",
		rep.Workload, mode, rep.Seed, rep.P, rep.Lanes, runtime.Version())
	fmt.Fprintf(w, "   rounds=%d  units=%d (unit: %s)  tail=%s  attempted=%d failed=%d fail_share=%g  digest=%s\n",
		rep.Rounds, rep.Units, rep.Unit, rep.Tail, rep.Attempted, rep.Failed, rep.FailShare, rep.Digest)
	if !rep.Trace {
		fmt.Fprintf(w, "   host pace %.3f wall, %.3f cpu (reference work over its quiet-host time; the times below are divided by it)\n", rep.PaceWall, rep.PaceCPU)
	}
	for _, d := range defs {
		if m, ok := rep.Metrics[d.name]; ok {
			fmt.Fprintf(w, "   %-34s %s %s\n", d.name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		}
	}
	if len(rep.Budget) > 0 {
		var total float64
		fmt.Fprintf(w, "   time budget of the first traced round (self times; capacity = round wall x %d):\n", rep.Lanes)
		for _, b := range rep.Budget {
			fmt.Fprintf(w, "     %-22s %9.4f s  %6.2f %%  (%d spans)\n", b.Name, b.Seconds, 100*b.Share, b.Spans)
			total += b.Seconds
		}
		fmt.Fprintf(w, "     %-22s %9.4f s  = traced round wall x %d\n", "sum", total, rep.Lanes)
	}
	if rep.TraceFile != "" {
		fmt.Fprintf(w, "   trace: %s\n", rep.TraceFile)
	}
}

// account is the all-workloads document -compare reads.
type account struct {
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	P         int      `json:"p"`
	GoVersion string   `json:"go_version"`
	Workloads []*entry `json:"workloads"`
}

// entry is one workload of the account: its two runs, reconciled.
type entry struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailShare float64  `json:"fail_share"`
	Failures  []string `json:"failures,omitempty"`
	Timed     *report  `json:"timed,omitempty"`
	Traced    *report  `json:"traced,omitempty"`
}

// runChild runs this binary on one workload under a deadline and reads its
// report back. A child that dies, hangs or prints no report is an error.
func runChild(name string, seed uint64, seconds float64, traced bool, traceDir string) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadlineFor(seconds)+10*time.Second)
	defer cancel()
	args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if traceDir != "" {
			args = append(args, "-trace-dir", traceDir)
		}
	}
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("child killed at its deadline: %w", ctx.Err())
		}
		return nil, fmt.Errorf("child failed: %w", err)
	}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), reportPrefix); ok {
			var rep report
			if err := json.Unmarshal([]byte(line), &rep); err != nil {
				return nil, fmt.Errorf("child report: %w", err)
			}
			return &rep, nil
		}
	}
	return nil, errors.New("child printed no report")
}

// runAll runs every workload timed and traced, each in its own child
// process (clean heap and process-global caches, its own rusage, a deadline),
// and reconciles the pair: both runs executed the same fixed-seed work, so
// their result digests must be equal. A dead child costs its workload
// fail_share 1; the account is complete either way.
func runAll(seed uint64, seconds float64, traceDir, out string) int {
	acc := &account{Seed: seed, Seconds: seconds, P: parallelism(), GoVersion: runtime.Version()}
	bad := false
	for _, def := range workloadDefs {
		e := &entry{Name: def.name}
		acc.Workloads = append(acc.Workloads, e)
		for _, traced := range []bool{false, true} {
			rep, err := runChild(def.name, seed, seconds, traced, traceDir)
			if err != nil {
				e.Attempted++
				e.Failed++
				e.Failures = append(e.Failures, fmt.Sprintf("trace=%v: %v", traced, err))
				continue
			}
			printReport(os.Stdout, rep)
			e.Attempted += rep.Attempted
			e.Failed += rep.Failed
			e.Failures = append(e.Failures, rep.Failures...)
			if traced {
				e.Traced = rep
			} else {
				e.Timed = rep
			}
		}
		if e.Timed != nil && e.Traced != nil {
			e.Attempted++
			if e.Timed.Digest != e.Traced.Digest {
				e.Failed++
				e.Failures = append(e.Failures, fmt.Sprintf("exactness: timed digest %s != traced digest %s", e.Timed.Digest, e.Traced.Digest))
			}
		}
		if e.Timed == nil || e.Traced == nil {
			// A dead run leaves no count to take a share of.
			e.FailShare = 1
		} else {
			e.FailShare = float64(e.Failed) / float64(e.Attempted)
		}
		for _, f := range e.Failures {
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s\n", def.name, f)
		}
		fmt.Printf("== %s  attempted=%d failed=%d fail_share=%g\n\n", def.name, e.Attempted, e.Failed, e.FailShare)
		bad = bad || e.FailShare > 0
	}
	if out != "" {
		blob, err := json.MarshalIndent(acc, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println("account written to", out)
	}
	if bad {
		return 1
	}
	return 0
}
