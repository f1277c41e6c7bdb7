// Command perfbench is the repository's end-to-end benchmark. One run
// serves one workload from wfserved replicas (and, for gated workloads, a
// wfgate) living in this process on 127.0.0.1 listeners, drives them with
// two closed-loop clients sending the request stream the seed generates,
// checks every response, and prints its metrics. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
//	perfbench --workload cluster-hit --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same
// requests at each layer boundary and reports the per-layer metrics (see
// README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cluster-hit, seed-scan or cold-explore")
	seed := fs.Uint64("seed", 1, "seed of the generated request stream")
	seconds := fs.Int("seconds", 25, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 replays the requests at each layer boundary and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := mixes[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		logf("need --workload (cluster-hit, seed-scan or cold-explore), --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	// SIGINT and SIGTERM cancel the run; every path out closes the servers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	run := runTimed
	if *traced == 1 {
		run = runTraced
	}
	res, err := run(ctx, w, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		logf("%s: %v", w.name, err)
		if ctx.Err() != nil {
			return 130
		}
		return 1
	}
	res.print(w)
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's report; its JSON form is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	perKind map[string][2]int // attempted, failed
	errs    []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, perKind: map[string][2]int{}}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// attempt adds n attempted requests of a kind.
func (r *result) attempt(kind string, n int) {
	k := r.perKind[kind]
	k[0] += n
	r.perKind[kind] = k
	r.Attempted += n
}

// fail records request i of a kind as failed, keeping the first few
// errors for the report.
func (r *result) fail(i int, kind string, err error) {
	k := r.perKind[kind]
	k[1]++
	r.perKind[kind] = k
	r.Failed++
	r.Correct = false
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("request %d (%s): %v", i, kind, err))
	}
}

// count tallies a boundary's outcomes.
func (r *result) count(outs []outcome) {
	for _, o := range outs {
		r.attempt(o.kind, 1)
		if o.err != nil {
			r.fail(o.i, o.kind, o.err)
		}
	}
}

func (r *result) print(w *workload) {
	fmt.Printf("workload %s\n", w.name)
	for _, k := range kinds {
		if c, ok := r.perKind[k]; ok {
			fmt.Printf("  %-7s attempted %7d  failed %d\n", k, c[0], c[1])
		}
	}
	for _, e := range r.errs {
		fmt.Printf("  error: %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-26s %14.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	out, err := json.Marshal(r)
	if err != nil {
		logf("encode result: %v", err)
		return
	}
	fmt.Println(string(out))
}

// roundOf renders a round's make-up, e.g. "model:8 sweep:5".
func roundOf(round []string) string {
	n := map[string]int{}
	var order []string
	for _, slot := range round {
		if n[slot] == 0 {
			order = append(order, slot)
		}
		n[slot]++
	}
	parts := make([]string, len(order))
	for i, slot := range order {
		parts[i] = fmt.Sprintf("%s:%d", slot, n[slot])
	}
	return strings.Join(parts, " ")
}
