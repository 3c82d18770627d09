package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs two sets of untraced runs back to back, each set running
// every workload `runs` times on distinct seeds, and prints for each
// workload and end-to-end metric both sets' quartiles and whether the sets
// agree within the metric's bound: each set's spread (interquartile range
// over median) within the bound, except for setup_s, and the two medians
// apart by no more than the bound, in either direction.
func steadiness(runs int, seconds float64, stdout, stderr io.Writer) int {
	const benchFile = "BENCHMARK.json"
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		fmt.Fprintf(stderr, "phasebench: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "phasebench: %s: %v\n", benchFile, err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "phasebench: %v\n", err)
		return 2
	}
	// values[set][workload][metric] lists one value per run.
	values := [2]map[string]map[string][]float64{{}, {}}
	failures := [2]map[string][2]int{{}, {}}
	for set := 0; set < 2; set++ {
		for _, wl := range workloads {
			values[set][wl.name] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				seed := int64(100*(set+1) + i)
				res, err := runChild(self, wl.name, seed, seconds)
				if err != nil {
					fmt.Fprintf(stderr, "phasebench: %s seed %d: %v\n", wl.name, seed, err)
					return 1
				}
				fmt.Fprintf(stderr, "set %d %s seed %d: attempted %d failed %d\n", set+1, wl.name, seed, res.Attempted, res.Failed)
				f := failures[set][wl.name]
				failures[set][wl.name] = [2]int{f[0] + res.Attempted, f[1] + res.Failed}
				for name, m := range res.Metrics {
					values[set][wl.name][name] = append(values[set][wl.name][name], m.Value)
				}
			}
		}
	}
	ok := true
	fmt.Fprintf(stdout, "%d runs per set, %gs each\n", runs, seconds)
	fmt.Fprintf(stdout, "%-18s %-13s %6s | %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %s\n",
		"workload", "metric", "bound", "q1", "median", "q3", "spread", "q1", "median", "q3", "spread", "worse", "agree")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			var q [2][3]float64
			var spread [2]float64
			for set := 0; set < 2; set++ {
				q[set] = quartiles(values[set][wl.name][m.Name])
				spread[set] = (q[set][2] - q[set][0]) / q[set][1]
			}
			worse := (q[1][1] - q[0][1]) / q[0][1]
			if m.Better == "higher" {
				worse = -worse
			}
			agree := math.Abs(worse) <= m.Bound
			if m.Name != "setup_s" {
				agree = agree && spread[0] <= m.Bound && spread[1] <= m.Bound
			}
			ok = ok && agree
			fmt.Fprintf(stdout, "%-18s %-13s %6.3f | %12.6g %12.6g %12.6g %7.4f | %12.6g %12.6g %12.6g %7.4f | %7.4f %v\n",
				wl.name, m.Name, m.Bound, q[0][0], q[0][1], q[0][2], spread[0], q[1][0], q[1][1], q[1][2], spread[1], worse, agree)
		}
		f0, f1 := failures[0][wl.name], failures[1][wl.name]
		same := f0[1]*f1[0] == f1[1]*f0[0]
		ok = ok && same
		fmt.Fprintf(stdout, "%-18s failed %d/%d and %d/%d: same share %v\n", wl.name, f0[1], f0[0], f1[1], f1[0], same)
	}
	if !ok {
		fmt.Fprintln(stdout, "sets disagree")
		return 1
	}
	fmt.Fprintln(stdout, "sets agree")
	return 0
}

// runChild runs one untraced benchmark run in a child process and parses
// its result line.
func runChild(self, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var out [3]float64
	n := len(d)
	if n == 0 {
		return out
	}
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}
