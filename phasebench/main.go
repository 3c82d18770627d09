// Command phasebench times the paper's communication phases on the
// default path of the commintent runtime: Fig. 4's setEvec spin transfer,
// Fig. 3's atom distribution, and a directive-text halo lowered to SHMEM.
//
// Each timed iteration runs from one world barrier to the next; set-up and
// output checks stay outside the timed span. An untraced run prints the
// end-to-end metrics; a traced run (-trace 1) prints the per-layer metrics:
// wall spans around public calls, CPU and allocation shares per module, and
// exact counts from the counters the program exposes.
//
//	phasebench --workload setevec --seed 1 --seconds 15 --trace 0
//	phasebench --steady 10 --seconds 15      # two sets of runs, compared
//
// The steadiness mode reads the bounds from BENCHMARK.json in the working
// directory.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// envOverrides are the environment switches that move the program off its
// default path; the benchmark measures the default path whatever the
// caller's environment says.
var envOverrides = []string{"COMMINTENT_MANAGED_RUNTIME", "COMMINTENT_TRANSPORT"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phasebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured loop, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	steady := fs.Int("steady", 0, "steadiness mode: runs per set (two sets, every workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	goruntime.GOMAXPROCS(1)
	for _, k := range envOverrides {
		if v, ok := os.LookupEnv(k); ok {
			fmt.Fprintf(stderr, "phasebench: ignoring %s=%q: the default path is measured\n", k, v)
			os.Unsetenv(k)
		}
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "phasebench: --seconds must be positive")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if *steady > 0 {
		return steadiness(*steady, *seconds, stdout, stderr)
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "phasebench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "phasebench: --trace must be 0 or 1")
		return 2
	}
	stamp(stdout, wl, *seed, *trace)

	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(wl, *seed, dur)
	} else {
		res, err = untracedRun(wl, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "phasebench: %s: %v\n", wl.name, err)
	}
	// A run that fails mid-loop still reports what it attempted; one that
	// fails in set-up has no result to print.
	if res != nil {
		res.print(stdout)
	}
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// metric is one named measurement of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes one human-readable line per metric, then the JSON line.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(w, "# %-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.Metrics == nil {
		r.Metrics = map[string]metric{} // a run that failed early measured nothing
	}
	b, _ := json.Marshal(r) // a struct of numbers, strings and bools always marshals
	fmt.Fprintln(w, string(b))
}

// stamp prints the run's context: what ran, and on what.
func stamp(w io.Writer, wl *workload, seed int64, trace int) {
	ctx := map[string]any{
		"workload":   wl.name,
		"ranks":      wl.ranks,
		"seed":       seed,
		"trace":      trace,
		"go":         goruntime.Version(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"nproc":      goruntime.NumCPU(),
		"cpu":        cpuModel(),
	}
	b, _ := json.Marshal(ctx) // plain values always marshal
	fmt.Fprintf(w, "# context %s\n", b)
}

// cpuModel reads the host's CPU model name ("unknown" where it cannot).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
