package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/spmd"
	"commintent/internal/telemetry"
)

// phase is one rank's state for one workload.
type phase interface {
	// prep writes iteration it's inputs; it runs before the opening barrier.
	prep(it int)
	// step is the timed work of iteration it. sp is nil outside the traced
	// pass, so the untraced loop reads no clock inside the step.
	step(it int, sp *rankSpans) error
	// check verifies iteration it's outputs against the benchmark's own
	// computation; it runs after the closing barrier.
	check(it int) error
	// world is the world communicator the iteration barriers run on.
	world() *mpi.Comm
}

// rankSetup builds one rank's phase inside the world.
type rankSetup func(rk *spmd.Rank, sp *rankSpans) (phase, error)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	ranks int
	// prepare does the world-level set-up that precedes the ranks (the
	// halo's directive compilation) and returns the per-rank set-up.
	prepare func(seed int64, sp *rankSpans) (rankSetup, error)
	// verify checks, once after set-up, what holds across ranks.
	verify func(phases []phase) error
}

var workloads = []*workload{
	newSetevec(8, 16),
	newDistribution(2, 16, 4000),
	newHalo(16, 16, 32),
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// instance is one set-up world of a workload, ready to iterate.
type instance struct {
	w      *spmd.World
	phases []phase
}

// open sets up a fresh world: spawn, world-level preparation, then every
// rank's set-up. Telemetry, when given, is bound before any rank starts.
func (wl *workload) open(seed int64, tele *telemetry.Telemetry, sp *spanSet) (*instance, error) {
	t := sp.world().begin()
	w, err := spmd.NewWorld(wl.ranks, model.GeminiLike())
	sp.world().end(spanWorldSpawn, t)
	if err != nil {
		return nil, err
	}
	if tele != nil {
		w.SetTelemetry(tele)
	}
	mk, err := wl.prepare(seed, sp.world())
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, phases: make([]phase, wl.ranks)}
	err = runWorld(w, func(rk *spmd.Rank) error {
		p, err := mk(rk, sp.rank(rk.ID))
		in.phases[rk.ID] = p
		return err
	})
	if err != nil {
		return nil, err
	}
	if wl.verify != nil {
		if err := wl.verify(in.phases); err != nil {
			return nil, fmt.Errorf("set-up check: %w", err)
		}
	}
	return in, nil
}

// runWorld runs body on every rank and returns the first rank error, or
// panic, as soon as it happens: a rank that fails mid-iteration leaves its
// peers blocked in a barrier, so waiting for every rank would hang.
func runWorld(w *spmd.World, body func(*spmd.Rank) error) error {
	first := make(chan error, 1)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(rk *spmd.Rank) (err error) {
			defer func() {
				if v := recover(); v != nil {
					err = fmt.Errorf("panic: %v", v)
				}
				if err != nil {
					select {
					case first <- fmt.Errorf("rank %d: %w", rk.ID, err):
					default:
					}
				}
			}()
			return body(rk)
		})
	}()
	select {
	case err := <-done:
		return err
	case err := <-first:
		return err
	}
}

// loopStats is what one measured loop observed.
type loopStats struct {
	wall      []time.Duration // per timed iteration, barrier to barrier
	vtime     []model.Time    // per timed iteration, virtual makespan
	attempted int
	failed    int
}

// warmIters iterations run, and are checked, before timing starts, so lazy
// set-up (datatype caches, pooled buffers, heap growth) is not timed.
const warmIters = 20

// minIters is the fewest timed iterations a loop makes, however short.
const minIters = 20

// loop iterates for at least d of wall time and returns per-iteration
// timings. Every rank runs the same whole iterations; rank 0 records them
// and decides when to stop, and the decision reaches the other ranks
// through the next opening barrier. sp, when non-nil, records spans in the
// step. When a rank's step fails, the loop ends at once with the error and
// stats that count the failing iteration as attempted and failed.
//
// An iteration's wall time runs from the last rank's arrival at the
// opening barrier to the last rank's arrival at the closing one. With more
// ranks than processors, a rank resumes from a barrier at a time that
// depends on the scheduler, so one rank's own clock would also count other
// ranks' untimed checks and input fills; between the two last arrivals
// every rank does timed work or waits for its peers.
func (in *instance) loop(d time.Duration, sp *spanSet) (*loopStats, error) {
	st := &loopStats{}
	var stop atomic.Bool
	// Iterations that passed their closing barrier; rank 0 counts them.
	var done atomic.Int64
	var failMu sync.Mutex
	failed := map[int]bool{}
	start := time.Now()
	// Barrier arrival times since start, per rank, double-buffered by
	// iteration parity: rank 0 reads iteration it's after the closing
	// barrier, and no rank can write that parity again before rank 0 has
	// reached the next opening barrier.
	var opened, closed [2][]time.Duration
	for i := range opened {
		opened[i] = make([]time.Duration, len(in.phases))
		closed[i] = make([]time.Duration, len(in.phases))
	}
	err := runWorld(in.w, func(rk *spmd.Rank) error {
		ph := in.phases[rk.ID]
		c := ph.world()
		wb := rk.World().Fabric().WorldBarrier()
		for it := 0; ; it++ {
			ph.prep(it)
			opened[it%2][rk.ID] = time.Since(start)
			c.Barrier()
			if stop.Load() {
				return nil
			}
			var rs *rankSpans
			if it >= warmIters {
				rs = sp.rank(rk.ID)
			}
			v0 := rk.Now()
			if err := ph.step(it, rs); err != nil {
				return fmt.Errorf("iteration %d: %w", it, err)
			}
			closed[it%2][rk.ID] = time.Since(start)
			maxV := wb.Wait(rk.ID, rk.Now())
			rk.Clock().AdvanceTo(maxV)
			if rk.ID == 0 {
				wall := slices.Max(closed[it%2]) - slices.Max(opened[it%2])
				done.Add(1)
				if it >= warmIters {
					st.wall = append(st.wall, wall)
					st.vtime = append(st.vtime, maxV-v0)
				}
				if len(st.wall) >= minIters && time.Since(start) >= d {
					stop.Store(true)
				}
			}
			if err := ph.check(it); err != nil {
				failMu.Lock()
				if !failed[it] {
					failed[it] = true
					fmt.Printf("# check failed: iteration %d, rank %d: %v\n", it, rk.ID, err)
				}
				failMu.Unlock()
			}
		}
	})
	failMu.Lock()
	defer failMu.Unlock()
	if err != nil {
		// A step fails after every rank has checked the previous iteration
		// and opened this one, which can then never close.
		return &loopStats{attempted: int(done.Load()) + 1, failed: len(failed) + 1}, err
	}
	st.attempted = int(done.Load())
	st.failed = len(failed)
	return st, nil
}

// Span identifiers: wall time around the public calls of each layer.
type spanID int

const (
	spanWorldSpawn spanID = iota
	spanWllsmsSetup
	spanPragmaCompile
	spanCoreNewEnv
	spanStageSpins
	spanSetevec
	spanReduce
	spanDistribute
	spanPlanExecute
	spanBarrierAll
	spanAllreduce
	numSpans
)

// spanNames are the per-layer metric names of the spans, in spanID order.
var spanNames = [numSpans]string{
	"spmd.world_spawn_us",
	"wllsms.setup_us",
	"pragma.compile_us",
	"core.new_env_us",
	"wllsms.stage_spins_us",
	"wllsms.setevec_us",
	"mpi.reduce_us",
	"wllsms.distribute_us",
	"plan.execute_us",
	"shmem.barrier_all_us",
	"mpi.allreduce_us",
}

// rankSpans accumulates one rank's span durations. A nil *rankSpans records
// nothing and reads no clock.
type rankSpans struct {
	ns [numSpans]int64
	n  [numSpans]int64
}

func (s *rankSpans) begin() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *rankSpans) end(id spanID, t0 time.Time) {
	if s == nil {
		return
	}
	s.ns[id] += int64(time.Since(t0))
	s.n[id]++
}

// spanSet holds every rank's spans plus one slot for world-level calls. A
// nil *spanSet hands out nil recorders.
type spanSet struct {
	ranks []rankSpans
}

func newSpanSet(n int) *spanSet { return &spanSet{ranks: make([]rankSpans, n+1)} }

func (s *spanSet) rank(r int) *rankSpans {
	if s == nil {
		return nil
	}
	return &s.ranks[r]
}

func (s *spanSet) world() *rankSpans {
	if s == nil {
		return nil
	}
	return &s.ranks[len(s.ranks)-1]
}

// meanUS reports each span's mean wall µs per call over all ranks; a span
// the workload never calls reads 0.
func (s *spanSet) meanUS() [numSpans]float64 {
	var out [numSpans]float64
	for id := spanID(0); id < numSpans; id++ {
		var ns, n int64
		for i := range s.ranks {
			ns += s.ranks[i].ns[id]
			n += s.ranks[i].n[id]
		}
		if n > 0 {
			out[id] = float64(ns) / float64(n) / 1e3
		}
	}
	return out
}

// quantile is the linear-interpolation quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
