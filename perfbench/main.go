// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time and prints every metric by name and unit, then
// one JSON result line:
//
//	perfbench --workload budget-step --seed 1 --seconds 15 --trace 0
//
// Two workloads drive real dibad processes over loopback TCP and HTTP
// (budget-step, api-read); one drives the cluster simulator through its
// public Go API (sim-hour). Every workload reports the same end-to-end
// metrics, each defined for its own operation. With --trace 1
// the run records spans around its own calls into each layer, times each
// layer's public functions in-process, and reports the per-layer metrics
// instead. See README.md for what each workload measures and why.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

// bench is one run's configuration and accounting.
type bench struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dibad   string // daemon binary (live workloads)
	workDir string // per-run scratch: peers files, daemon logs
	led     *ledger
	tr      *tracer // nil in an untraced run
}

var workloads = map[string]func(*bench) error{
	"budget-step": runBudgetStep,
	"api-read":    runAPIRead,
	"sim-hour":    runSimHour,
}

// runLimit is the longest a run may take before it is abandoned: a run
// must end within 180 s, and a stuck cluster must not outlive that.
const runLimit = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload to run: budget-step, api-read or sim-hour")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 15, "how long the run measures")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	dibad := flag.String("dibad", "", "dibad binary for the live workloads")
	out := flag.String("out", ".bench_build", "directory for run scratch files and the span dump")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		dibad:   *dibad,
		led:     newLedger(),
	}
	if b.trace {
		b.tr = newTracer()
	}
	work, err := os.MkdirTemp(mustMkdir(*out), "run-")
	if err != nil {
		fatal(err)
	}
	b.workDir = work

	// Every exit path reaps the daemons: normal return, error, panic (the
	// deferred cleanup below), a signal, and the run limit. A SIGKILL of
	// this process is covered by the daemons' parent-death signal.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "perfbench: caught %v; stopping daemons\n", sig)
		exit(work, 128+int(sig.(syscall.Signal)))
	}()
	limit := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; stopping daemons\n", runLimit)
		exit(work, 3)
	})
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n%s", p, debug.Stack())
			exit(work, 2)
		}
	}()

	steal0, all0 := hostSteal()
	want := endToEnd
	if b.trace {
		// The layer probes run first, on CPUs no daemon is using yet.
		want = perLayer
		err = probeLayers(b)
	}
	if err == nil {
		err = run(b)
	}
	limit.Stop()
	daemons.killAll()
	if err == nil {
		err = b.led.conforms(want)
	}
	if steal1, all1 := hostSteal(); all1 > all0 {
		b.led.note("host steal: %.1f%% of the machine's CPU time during the run", 100*(steal1-steal0)/(all1-all0))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		exit(work, 1)
	}
	if b.trace {
		path := filepath.Join(*out, "trace", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := b.tr.write(path); err != nil {
			fatal(err)
		}
		b.led.note("spans: %d recorded, %d dropped, written to %s", len(b.tr.spans), b.tr.dropped, path)
	}
	os.RemoveAll(work)
	if err := b.led.write(os.Stdout); err != nil {
		fatal(err)
	}
}

// another reports whether a run that has made pass passes, the last
// taking last, should start one more before deadline. It starts one when
// at least half of it fits, so a run measures for about its length
// whatever a pass takes; it always makes one, and a traced run two, a
// traced and an untraced one to compare.
func (b *bench) another(pass int, deadline time.Time, last time.Duration) bool {
	if pass < 1 || (b.trace && pass < 2) {
		return true
	}
	return time.Now().Add(last / 2).Before(deadline)
}

// exit stops every daemon, removes the run's scratch directory and exits
// with code without printing a result.
func exit(work string, code int) {
	daemons.killAll()
	os.RemoveAll(work)
	os.Exit(code)
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	daemons.killAll()
	os.Exit(1)
}
