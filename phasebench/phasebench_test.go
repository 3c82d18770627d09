package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"commintent/internal/spmd"
	"commintent/internal/wllsms"
)

// Tiny shapes of the three workloads: the same code paths at a few ranks.
func tinySetevec() *workload      { return newSetevec(2, 4) }
func tinyDistribution() *workload { return newDistribution(1, 4, 50) }
func tinyHalo() *workload         { return newHalo(3, 3, 4) }

const testSeed = 7

func openTiny(t *testing.T, wl *workload) *instance {
	t.Helper()
	in, err := wl.open(testSeed, nil, nil)
	if err != nil {
		t.Fatalf("%s: open: %v", wl.name, err)
	}
	return in
}

// runOnce runs iteration it on every rank, without its checks.
func runOnce(t *testing.T, in *instance, it int) {
	t.Helper()
	err := runWorld(in.w, func(rk *spmd.Rank) error {
		ph := in.phases[rk.ID]
		ph.prep(it)
		ph.world().Barrier()
		if err := ph.step(it, nil); err != nil {
			return err
		}
		ph.world().Barrier()
		return nil
	})
	if err != nil {
		t.Fatalf("iteration %d: %v", it, err)
	}
}

// checkAll runs every rank's check of iteration it and returns the ranks
// whose check failed.
func checkAll(in *instance, it int) []int {
	var bad []int
	for r, ph := range in.phases {
		if ph.check(it) != nil {
			bad = append(bad, r)
		}
	}
	return bad
}

func TestLoopRunsWholeCheckedIterations(t *testing.T) {
	for _, wl := range []*workload{tinySetevec(), tinyDistribution(), tinyHalo()} {
		in := openTiny(t, wl)
		st, err := in.loop(time.Millisecond, newSpanSet(wl.ranks))
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if st.failed != 0 {
			t.Errorf("%s: %d of %d iterations failed their checks", wl.name, st.failed, st.attempted)
		}
		if st.attempted != warmIters+len(st.wall) || len(st.wall) < minIters || len(st.vtime) != len(st.wall) {
			t.Errorf("%s: attempted %d, timed %d wall and %d vtime samples", wl.name, st.attempted, len(st.wall), len(st.vtime))
		}
		for _, v := range st.vtime {
			if v <= 0 {
				t.Fatalf("%s: virtual makespan %v", wl.name, v)
			}
		}
	}
}

// failAt is a phase whose step fails at one iteration.
type failAt struct {
	phase
	it int
}

func (f failAt) step(it int, sp *rankSpans) error {
	if it == f.it {
		return errors.New("injected step failure")
	}
	return f.phase.step(it, sp)
}

func TestLoopCountsFailedStep(t *testing.T) {
	wl := tinySetevec()
	in := openTiny(t, wl)
	const at = warmIters + 5
	in.phases[2] = failAt{in.phases[2], at}
	st, err := in.loop(time.Hour, nil)
	if err == nil {
		t.Fatal("a failing step ended the loop without an error")
	}
	if st == nil || st.attempted != at+1 || st.failed != 1 {
		t.Fatalf("stats %+v, want %d attempted and 1 failed", st, at+1)
	}
	if res := st.result(); res.Correct {
		t.Fatal("a run with a failed step reads correct")
	}
}

func TestSetevecCheckRejectsFlippedSpin(t *testing.T) {
	in := openTiny(t, tinySetevec())
	runOnce(t, in, 3)
	if bad := checkAll(in, 3); bad != nil {
		t.Fatalf("checks fail on ranks %v before corruption", bad)
	}
	s := in.phases[2].(*setevecRank) // a worker of the first instance
	s.app.Local[0].Scalars.Evec[1] = -s.app.Local[0].Scalars.Evec[1]
	if err := s.check(3); err == nil {
		t.Fatal("a flipped spin passed the check")
	}
	root := in.phases[1].(*setevecRank) // the first instance's privileged rank
	if root.check(3) != nil {
		t.Fatal("the reduced checksum of iteration 3 was rejected")
	}
	if checkSpinSum(testSeed, 3, 0, 4, root.red[0]+1e-6) == nil {
		t.Fatal("a perturbed checksum passed")
	}
}

func TestPartitionCheck(t *testing.T) {
	if err := checkPartition([][]int{{0, 2}, {1, 3}}, 4); err != nil {
		t.Fatal(err)
	}
	for _, owned := range [][][]int{{{0, 2}, {1}}, {{0, 2}, {1, 2, 3}}, {{0, 1, 2, 3, 4}}} {
		if checkPartition(owned, 4) == nil {
			t.Errorf("%v passed as a partition of 4 atoms", owned)
		}
	}
}

func TestDistributionCheckRejectsPerturbedElement(t *testing.T) {
	in := openTiny(t, tinyDistribution())
	runOnce(t, in, 0)
	if bad := checkAll(in, 0); bad != nil {
		t.Fatalf("checks fail on ranks %v before corruption", bad)
	}
	d := in.phases[3].(*distRank)
	d.app.Local[0].RhoTot[17] = math.Nextafter(d.app.Local[0].RhoTot[17], 1)
	if err := d.check(0); err == nil || !strings.Contains(err.Error(), "rhotot[17]") {
		t.Fatalf("a perturbed density element gave %v", err)
	}

	// A distribution that did not happen leaves the zeroed storage.
	in.phases[3].prep(1)
	if d.check(1) == nil {
		t.Fatal("zeroed storage passed the check")
	}
}

func TestHaloCheckRejectsDroppedCell(t *testing.T) {
	in := openTiny(t, tinyHalo())
	runOnce(t, in, 5)
	if bad := checkAll(in, 5); bad != nil {
		t.Fatalf("checks fail on ranks %v before corruption", bad)
	}
	// Rank 4 is the centre of the 3x3 grid: all four halos are written.
	h := in.phases[4].(*haloRank)
	h.halos[dirNorth].Local(h.shm)[2] = haloSentinel
	if err := h.check(5); err == nil {
		t.Fatal("a dropped halo cell passed the check")
	}
	// Rank 0 is a corner: its west and north halos keep the sentinel.
	c := in.phases[0].(*haloRank)
	c.halos[dirEast].Local(c.shm)[0] = 1
	if err := c.check(5); err == nil {
		t.Fatal("an overwritten boundary sentinel passed the check")
	}
	if checkResidualSum(5, 9, h.sum[0]) != nil || checkResidualSum(5, 9, h.sum[0]+1) == nil {
		t.Fatal("the allreduce check does not pin the closed-form sum")
	}
}

func TestHaloNeighbours(t *testing.T) {
	// 3x3 grid, rank 4 in the centre.
	want := [numDirs]int{3, 5, 1, 7}
	for d, w := range want {
		if got := haloNeighbour(4, 3, 3, d); got != w {
			t.Errorf("halo %s of rank 4 comes from %d, want %d", haloSlots[d], got, w)
		}
	}
	for d, w := range [numDirs]int{-1, 1, -1, 3} {
		if got := haloNeighbour(0, 3, 3, d); got != w {
			t.Errorf("halo %s of rank 0 comes from %d, want %d", haloSlots[d], got, w)
		}
	}
}

func TestReferenceAtomsMatchGenerator(t *testing.T) {
	p := wllsms.DefaultParams()
	p.NumAtoms, p.TRows, p.Seed = 3, 20, 11
	ref := referenceAtoms(p)
	rng := wllsms.NewSeededRNG(11)
	for i, a := range ref {
		if checkAtom(a, wllsms.GenerateAtom(i, 20, p.CoreRows, rng)) != nil {
			t.Fatalf("reference atom %d differs from the generator's", i)
		}
	}
}

// pb is a minimal protobuf encoder for synthetic profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// synthProfile encodes a gzipped CPU profile whose samples have the given
// stacks (each a list of locations, leaf first; a location lists its
// function names innermost first) and CPU times.
func synthProfile(stacks [][][]string, cpu []int64) []byte {
	strs := []string{""}
	index := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := index[s]; ok {
			return i
		}
		index[s] = uint64(len(strs))
		strs = append(strs, s)
		return index[s]
	}
	var p pb
	p = p.bytes(1, pb{}.varint(1, str("samples")).varint(2, str("count")))
	p = p.bytes(1, pb{}.varint(1, str("cpu")).varint(2, str("nanoseconds")))
	fnID := map[string]uint64{}
	var locID uint64
	for i, stack := range stacks {
		var locs pb
		for _, loc := range stack {
			locID++
			l := pb{}.varint(1, locID)
			for _, fn := range loc {
				if fnID[fn] == 0 {
					fnID[fn] = uint64(len(fnID) + 1)
					p = p.bytes(5, pb{}.varint(1, fnID[fn]).varint(2, str(fn)))
				}
				l = l.bytes(4, pb{}.varint(1, fnID[fn]).varint(2, 1))
			}
			p = p.bytes(4, l)
			locs = binary.AppendUvarint(locs, locID)
		}
		var vals pb
		vals = binary.AppendUvarint(vals, 1)
		vals = binary.AppendUvarint(vals, uint64(cpu[i]))
		p = p.bytes(2, pb{}.bytes(1, locs).bytes(2, vals))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p)
	zw.Close()
	return buf.Bytes()
}

func TestAttributionInnermostModuleFrame(t *testing.T) {
	stacks := [][][]string{
		// Runtime work a layer causes counts against the layer.
		{{"runtime.memmove"}, {"commintent/internal/typemap.encodeFast"},
			{"commintent/internal/mpi.(*Comm).Send"}, {"main.(*distRank).step"}},
		// An inlined frame is innermost within its location.
		{{"commintent/internal/pragma.evalWith", "commintent/internal/plan.(*Plan).Execute.func1"},
			{"commintent/internal/core.(*Env).Parameters"}},
		// A generic instantiation belongs to its package.
		{{"runtime.mallocgc"}, {"commintent/internal/shmem.Alloc[go.shape.float64]"}},
		// The benchmark's own frames.
		{{"runtime.memequal"}, {"main.checkAtom"}},
		// No module frame at all.
		{{"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}},
	}
	samples, err := parseCPUProfile(synthProfile(stacks, []int64{30, 20, 10, 15, 25}))
	if err != nil {
		t.Fatal(err)
	}
	got := shares(samples)
	want := map[string]float64{"typemap": 0.30, "pragma": 0.20, "shmem": 0.10, "bench": 0.15, "go": 0.25}
	for _, m := range modules {
		if math.Abs(got[m]-want[m]) > 1e-12 {
			t.Errorf("%s share %v, want %v", m, got[m], want[m])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles %v", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{4, 1, 2}); q != [3]float64{1, 2, 4} {
		t.Fatalf("quartiles %v", q)
	}
}

func TestUnknownWorkloadRefused(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
