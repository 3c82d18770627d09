package main

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"runtime/pprof"
	"sort"
	"time"

	"commintent/internal/simnet"
	"commintent/internal/telemetry"
	"commintent/internal/typemap"
)

// setupSamples fresh set-ups are timed per run; setup_s is their median.
const setupSamples = 15

// untracedRun measures the end-to-end metrics: the median of several fresh
// set-ups, then one loop on the last world with no tracing of any kind.
func untracedRun(wl *workload, seed int64, d time.Duration) (*result, error) {
	// Fill the benchmark's own reference data before the first timed
	// set-up, so setup_s times the program alone.
	if _, err := wl.prepare(seed, nil); err != nil {
		return nil, err
	}
	setups := make([]float64, 0, setupSamples)
	var in *instance
	for i := 0; i < setupSamples; i++ {
		in = nil
		goruntime.GC()
		t0 := time.Now()
		next, err := wl.open(seed, nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		in = next
	}
	st, err := in.loop(d, nil)
	if err != nil {
		return st.result(), err
	}
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	goruntime.KeepAlive(in)

	res := st.result()
	walls := durationsUS(st.wall)
	res.set("setup_s", median(setups), "s")
	res.set("iter_p50_us", quantile(walls, 0.5), "us")
	res.set("iter_p90_us", quantile(walls, 0.9), "us")
	res.set("iters_per_s", st.itersPerSec(), "1/s")
	vt := make([]float64, len(st.vtime))
	for i, v := range st.vtime {
		vt[i] = v.Micros()
	}
	res.set("vtime_us", median(vt), "vus")
	res.set("live_heap_mb", float64(ms.HeapAlloc)/1e6, "MB")
	return res, nil
}

// tracedRun measures the per-layer metrics in four passes of d/4 each:
//
//  1. plain: an untraced world, for the Go runtime's allocation and GC
//     counts, the process-wide pool and pack-path counters, and the
//     throughput the tracing overhead is taken against;
//  2. cpu: the same world under the CPU profiler;
//  3. alloc: the same world with allocation sampling at allocSampleRate;
//  4. spans: a fresh world with telemetry bound, spans around public calls
//     and the registry's counters.
//
// The profilers run on the untraced world, so the shares are those of the
// path the end-to-end metrics time; binding telemetry turns on counters and
// spans inside the program. They run in separate passes because allocation
// sampling's stack unwinding would otherwise show up in the CPU profile.
// On an error the result so far is returned with it.
func tracedRun(wl *workload, seed int64, d time.Duration) (*result, error) {
	pass := d / 4
	res := &result{Correct: true}
	tally := func(st *loopStats) {
		res.Attempted += st.attempted
		res.Failed += st.failed
		res.Correct = res.Failed == 0
	}

	plain, err := wl.open(seed, nil, nil)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 goruntime.MemStats
	h0, m0 := simnet.PoolStats()
	fe0, fd0, re0, rd0 := typemap.PathStats()
	goruntime.ReadMemStats(&ms0)
	st, err := plain.loop(pass, nil)
	goruntime.ReadMemStats(&ms1)
	h1, m1 := simnet.PoolStats()
	fe1, fd1, re1, rd1 := typemap.PathStats()
	tally(st)
	if err != nil {
		return res, err
	}
	plainIPS := st.itersPerSec()
	iters := float64(st.attempted)
	res.set("go.alloc_bytes_per_iter", float64(ms1.TotalAlloc-ms0.TotalAlloc)/iters, "B")
	res.set("go.allocs_per_iter", float64(ms1.Mallocs-ms0.Mallocs)/iters, "count")
	res.set("go.gc_per_kiter", float64(ms1.NumGC-ms0.NumGC)*1000/iters, "count")
	res.set("simnet.pool_hit_frac", frac(h1-h0, m1-m0), "frac")
	res.set("typemap.fast_path_frac", frac((fe1-fe0)+(fd1-fd0), (re1-re0)+(rd1-rd0)), "frac")

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	st, err = plain.loop(pass, nil)
	pprof.StopCPUProfile()
	tally(st)
	if err != nil {
		return res, err
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for m, s := range shares(samples) {
		res.set(m+".cpu_share", s, "frac")
	}

	goruntime.MemProfileRate = allocSampleRate
	before := allocRecords()
	st, err = plain.loop(pass, nil)
	after := allocRecords()
	goruntime.MemProfileRate = defaultMemProfileRate
	tally(st)
	if err != nil {
		return res, err
	}
	for m, s := range shares(allocSamples(before, after, allocSampleRate)) {
		res.set(m+".alloc_share", s, "frac")
	}
	goruntime.GC() // drop the plain world before the traced one is built

	sp := newSpanSet(wl.ranks)
	tele := telemetry.New(wl.ranks, 64)
	in, err := wl.open(seed, tele, sp)
	if err != nil {
		return nil, err
	}
	c0, err := snapCounters(tele)
	if err != nil {
		return nil, err
	}
	st, err = in.loop(pass, sp)
	tally(st)
	if err != nil {
		return res, err
	}
	c1, err := snapCounters(tele)
	if err != nil {
		return nil, err
	}
	res.set("bench.tracing_overhead_frac", 1-st.itersPerSec()/plainIPS, "frac")
	for id, us := range sp.meanUS() {
		res.set(spanNames[id], us, "us")
	}
	iters = float64(st.attempted)
	per := func(k string) float64 { return (c1.sum[k] - c0.sum[k]) / iters }
	res.set("simnet.msgs_per_iter", per(`simnet_events_total|send`), "count")
	res.set("simnet.bytes_per_iter", per(`simnet_bytes_total|send`), "B")
	res.set("core.directives_per_iter", per("core_directives_total"), "count")
	res.set("core.syncs_consolidated_per_iter", per("core_syncs_consolidated_total"), "count")
	res.set("runtime.coalesce_msgs_saved_per_iter", per("runtime_coalesce_msgs_saved_total"), "count")
	res.set("mpi.wait_vtime_us_per_iter", per("mpi_wait_virtual_ns")/1e3, "vus")
	res.set("mpi.rendezvous_stalls_per_iter", per("mpi_rendezvous_stalls_total"), "count")
	res.set("mpi.coll_calls_per_iter", per("mpi_coll_calls_total"), "count")
	res.set("shmem.put_bytes_per_iter", per("shmem_put_bytes_total"), "B")
	res.set("simnet.unexpected_hwm", c1.max["simnet_unexpected_queue_hwm"], "count")
	goruntime.KeepAlive(in)
	return res, nil
}

func (st *loopStats) result() *result {
	return &result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed}
}

// itersPerSec is timed iterations over the wall time they took.
func (st *loopStats) itersPerSec() float64 {
	var sum time.Duration
	for _, w := range st.wall {
		sum += w
	}
	return float64(len(st.wall)) / sum.Seconds()
}

// durationsUS returns ds in µs, sorted.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	sort.Float64s(out)
	return out
}

// frac is yes/(yes+no), or 0 when the layer did no such operation.
func frac(yes, no int64) float64 {
	if yes+no == 0 {
		return 0
	}
	return float64(yes) / float64(yes+no)
}
