package main

import (
	"fmt"

	"commintent/internal/core"
	"commintent/internal/mpi"
	"commintent/internal/plan"
	"commintent/internal/pragma"
	"commintent/internal/shmem"
	"commintent/internal/spmd"
)

// haloSrc is the four-neighbour halo as the paper's directive text: rank
// y*px+x sends its east, west, south and north edges into its neighbours'
// symmetric halo arrays. Ranks on the grid's boundary neither send nor
// receive across it, so their outer halos keep the sentinel.
const haloSrc = `
#pragma comm_parameters target(TARGET_COMM_SHMEM) place_sync(END_PARAM_REGION) max_comm_iter(4)
{
#pragma comm_p2p sbuf(east) rbuf(from_west) count(edge) sender(rank-1) receiver(rank+1) sendwhen(rank%px != px-1) receivewhen(rank%px != 0) target(TARGET_COMM_SHMEM)
#pragma comm_p2p sbuf(west) rbuf(from_east) count(edge) sender(rank+1) receiver(rank-1) sendwhen(rank%px != 0) receivewhen(rank%px != px-1) target(TARGET_COMM_SHMEM)
#pragma comm_p2p sbuf(south) rbuf(from_north) count(edge) sender(rank-px) receiver(rank+px) sendwhen(rank < nprocs-px) receivewhen(rank >= px) target(TARGET_COMM_SHMEM)
#pragma comm_p2p sbuf(north) rbuf(from_south) count(edge) sender(rank+px) receiver(rank-px) sendwhen(rank >= px) receivewhen(rank < nprocs-px) target(TARGET_COMM_SHMEM)
}
`

// Directions, in the order of haloSrc's comm_p2p lines: the edge a rank
// sends, and the halo it receives from the neighbour on the opposite side.
const (
	dirEast = iota
	dirWest
	dirSouth
	dirNorth
	numDirs
)

var (
	edgeSlots = [numDirs]plan.Slot{"east", "west", "south", "north"}
	haloSlots = [numDirs]plan.Slot{"from_west", "from_east", "from_north", "from_south"}
)

// haloSentinel marks a halo cell no neighbour writes; fills are never
// negative.
const haloSentinel = -7.25

// newHalo is a 2-D four-neighbour halo on a px*py grid with edge doubles
// per edge. The directive text is compiled once at set-up; every iteration
// executes the plan on symmetric buffers, then a SHMEM barrier and a world
// allreduce of a per-rank residual. It is the only workload that evaluates
// directive clauses on every execution, makes one-sided writes instead of
// matched receives, and runs a barrier and a collective over all ranks.
func newHalo(px, py, edge int) *workload {
	n := px * py
	return &workload{
		name:  "halo_pragma",
		ranks: n,
		prepare: func(seed int64, sp *rankSpans) (rankSetup, error) {
			t := sp.begin()
			pl, err := compileHalo(px, edge)
			sp.end(spanPragmaCompile, t)
			if err != nil {
				return nil, err
			}
			return func(rk *spmd.Rank, sp *rankSpans) (phase, error) {
				return newHaloRank(rk, sp, pl, seed, px, py, edge)
			}, nil
		},
	}
}

func compileHalo(px, edge int) (*plan.Plan, error) {
	b, err := pragma.ParseBlock(haloSrc)
	if err != nil {
		return nil, err
	}
	return pragma.CompileBlock(b, map[string]int{"px": px, "edge": edge})
}

type haloRank struct {
	c        *mpi.Comm
	shm      *shmem.Ctx
	env      *core.Env
	pl       *plan.Plan
	binding  plan.Binding
	edges    [numDirs][]float64
	halos    [numDirs]*shmem.Slice[float64]
	res, sum []float64

	seed            int64
	rank, px, py, n int
}

func newHaloRank(rk *spmd.Rank, sp *rankSpans, pl *plan.Plan, seed int64, px, py, edge int) (*haloRank, error) {
	h := &haloRank{c: mpi.World(rk), pl: pl, seed: seed, rank: rk.ID, px: px, py: py, n: px * py,
		res: make([]float64, 1), sum: make([]float64, 1), binding: plan.Binding{}}
	h.shm = shmem.New(rk)
	t := sp.begin()
	env, err := core.NewEnv(h.c, h.shm)
	sp.end(spanCoreNewEnv, t)
	if err != nil {
		return nil, err
	}
	h.env = env
	for d := 0; d < numDirs; d++ {
		if h.halos[d], err = shmem.Alloc[float64](h.shm, edge); err != nil {
			return nil, err
		}
		for i := range h.halos[d].Local(h.shm) {
			h.halos[d].Local(h.shm)[i] = haloSentinel
		}
		h.edges[d] = make([]float64, edge)
		h.binding[edgeSlots[d]] = h.edges[d]
		h.binding[haloSlots[d]] = h.halos[d]
	}
	return h, nil
}

func (h *haloRank) world() *mpi.Comm { return h.c }

func (h *haloRank) prep(it int) {
	for d := 0; d < numDirs; d++ {
		for i := range h.edges[d] {
			h.edges[d][i] = haloFill(h.seed, it, h.rank, d, i)
		}
	}
	h.res[0] = haloResidual(it, h.rank)
}

func (h *haloRank) step(_ int, sp *rankSpans) error {
	t := sp.begin()
	err := h.pl.Execute(h.env, h.binding)
	sp.end(spanPlanExecute, t)
	if err != nil {
		return err
	}
	t = sp.begin()
	h.shm.BarrierAll()
	sp.end(spanBarrierAll, t)
	t = sp.begin()
	err = h.c.Allreduce(h.res, h.sum, 1, mpi.Float64, mpi.OpSum)
	sp.end(spanAllreduce, t)
	return err
}

func (h *haloRank) check(it int) error {
	var halos [numDirs][]float64
	for d := range halos {
		halos[d] = h.halos[d].Local(h.shm)
	}
	if err := checkHalo(h.seed, it, h.rank, h.px, h.py, halos); err != nil {
		return err
	}
	return checkResidualSum(it, h.n, h.sum[0])
}

// haloNeighbour is the rank whose edge lands in halo d of rank r, or -1 on
// the grid's boundary.
func haloNeighbour(r, px, py, d int) int {
	x, y := r%px, r/px
	switch d {
	case dirEast: // from_west: the west neighbour's east edge
		x--
	case dirWest:
		x++
	case dirSouth: // from_north: the north neighbour's south edge
		y--
	case dirNorth:
		y++
	}
	if x < 0 || x >= px || y < 0 || y >= py {
		return -1
	}
	return y*px + x
}

// haloFill is cell i of the edge rank sends in direction d at iteration it.
// Values are whole numbers below 2^53, so they compare exactly.
func haloFill(seed int64, it, rank, d, i int) float64 {
	base := mix(uint64(seed), uint64(it)) & (1<<28 - 1)
	return float64(base<<22) + float64((rank*numDirs+d)*1024+i)
}

// haloResidual is rank's contribution to the iteration's allreduce.
func haloResidual(it, rank int) float64 { return float64((rank + 1) * (it%7 + 1)) }

// checkHalo verifies every halo cell of rank: the sending neighbour's fill,
// or the sentinel where the grid has no neighbour.
func checkHalo(seed int64, it, rank, px, py int, halos [numDirs][]float64) error {
	for d, halo := range halos {
		from := haloNeighbour(rank, px, py, d)
		for i, got := range halo {
			want := haloSentinel
			if from >= 0 {
				want = haloFill(seed, it, from, d, i)
			}
			if got != want {
				return fmt.Errorf("halo %s[%d] = %v, want %v (from rank %d)", haloSlots[d], i, got, want, from)
			}
		}
	}
	return nil
}

// checkResidualSum verifies the allreduce against its closed form,
// sum over ranks of (rank+1)*(it%7+1).
func checkResidualSum(it, n int, got float64) error {
	want := float64(n*(n+1)/2) * float64(it%7+1)
	if got != want {
		return fmt.Errorf("allreduce = %v, want %v", got, want)
	}
	return nil
}
