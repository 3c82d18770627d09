package main

import (
	"fmt"
	"math"

	"commintent/internal/core"
	"commintent/internal/mpi"
	"commintent/internal/spmd"
	"commintent/internal/wllsms"
)

// newSetevec is Fig. 4's random-spin transfer on 1 + groups*groupSize
// ranks: each iteration stages seeded spins from the Wang-Landau master to
// every LSMS instance, runs the directive setEvec lowered to two-sided MPI,
// and reduces a spin checksum over each instance. Messages are 3 doubles,
// so the phase is latency-bound. The benchmark runs 129 ranks (8
// instances of 16). Per-iteration times are bimodal at every rank count
// tried, 129 included; README.md, "Why these settings", records it.
func newSetevec(groups, groupSize int) *workload {
	p := wllsms.DefaultParams()
	p.Groups = groups
	p.GroupSize = groupSize
	p.NumAtoms = groupSize
	return &workload{
		name:  "setevec",
		ranks: p.NProcs(),
		prepare: func(seed int64, _ *rankSpans) (rankSetup, error) {
			p := p
			p.Seed = seed
			return func(rk *spmd.Rank, sp *rankSpans) (phase, error) {
				t := sp.begin()
				app, err := wllsms.Setup(rk, p)
				sp.end(spanWllsmsSetup, t)
				if err != nil {
					return nil, err
				}
				s := &setevecRank{app: app, seed: seed, sum: make([]float64, 1), red: make([]float64, 1)}
				if app.Role == wllsms.RoleWL {
					s.spins = make([][]float64, p.Groups)
					for g := range s.spins {
						s.spins[g] = make([]float64, 3*p.NumAtoms)
					}
				}
				return s, nil
			}, nil
		},
		verify: func(phases []phase) error {
			owned := make([][][]int, p.Groups)
			for _, ph := range phases {
				a := ph.(*setevecRank).app
				if a.Role != wllsms.RoleWL {
					owned[a.GroupIdx] = append(owned[a.GroupIdx], a.LocalAtoms)
				}
			}
			for g, o := range owned {
				if err := checkPartition(o, p.NumAtoms); err != nil {
					return fmt.Errorf("group %d: %w", g, err)
				}
			}
			return nil
		},
	}
}

type setevecRank struct {
	app   *wllsms.App
	seed  int64
	spins [][]float64 // the master's spin sets, one per instance
	sum   []float64   // this rank's spin checksum
	red   []float64   // the instance's reduced checksum, on its root
}

func (s *setevecRank) world() *mpi.Comm { return s.app.World }

func (s *setevecRank) prep(it int) {
	for g, set := range s.spins {
		for atom := 0; atom < len(set)/3; atom++ {
			v := spin(s.seed, it, g, atom)
			copy(set[3*atom:], v[:])
		}
	}
}

func (s *setevecRank) step(it int, sp *rankSpans) error {
	a := s.app
	t := sp.begin()
	err := a.StageSpins(s.spins)
	sp.end(spanStageSpins, t)
	if err != nil {
		return err
	}
	t = sp.begin()
	_, err = a.SetEvec(wllsms.VariantDirective, core.TargetMPI2Side)
	sp.end(spanSetevec, t)
	if err != nil {
		return err
	}
	if a.Role == wllsms.RoleWL {
		return nil
	}
	s.sum[0] = 0
	for li, atom := range a.LocalAtoms {
		s.sum[0] += spinWeight(atom, a.Local[li].Scalars.Evec)
	}
	t = sp.begin()
	err = a.Group.Reduce(s.sum, s.red, 1, mpi.Float64, mpi.OpSum, 0)
	sp.end(spanReduce, t)
	return err
}

func (s *setevecRank) check(it int) error {
	a := s.app
	if a.Role == wllsms.RoleWL {
		return nil
	}
	evecs := make([][3]float64, len(a.LocalAtoms))
	for li := range a.LocalAtoms {
		evecs[li] = a.Local[li].Scalars.Evec
	}
	if err := checkSpins(s.seed, it, a.GroupIdx, a.LocalAtoms, evecs); err != nil {
		return err
	}
	if a.Group.Rank() == 0 {
		return checkSpinSum(s.seed, it, a.GroupIdx, a.P.NumAtoms, s.red[0])
	}
	return nil
}

// spin is the unit spin vector of one atom of instance g at iteration it:
// a closed form of the seed, independent of the program's own generators.
func spin(seed int64, it, g, atom int) [3]float64 {
	h := mix(uint64(seed), uint64(it), uint64(g), uint64(atom))
	u := float64(h>>11) / (1 << 53)
	v := float64(mix(h, 1)>>11) / (1 << 53)
	z := 2*u - 1
	r := math.Sqrt(1 - z*z)
	phi := 2 * math.Pi * v
	return [3]float64{r * math.Cos(phi), r * math.Sin(phi), z}
}

// spinWeight is one atom's term of the instance checksum.
func spinWeight(atom int, e [3]float64) float64 {
	w := float64(3*atom + 1)
	return w*e[0] + (w+1)*e[1] + (w+2)*e[2]
}

// checkPartition verifies that the atoms owned by the ranks of one
// instance cover 0..numAtoms-1 exactly once.
func checkPartition(owned [][]int, numAtoms int) error {
	seen := make([]int, numAtoms)
	for _, atoms := range owned {
		for _, a := range atoms {
			if a < 0 || a >= numAtoms {
				return fmt.Errorf("owned atom %d outside 0..%d", a, numAtoms-1)
			}
			seen[a]++
		}
	}
	for a, n := range seen {
		if n != 1 {
			return fmt.Errorf("atom %d owned %d times", a, n)
		}
	}
	return nil
}

// checkSpins verifies that each owned atom holds exactly the spin drawn for
// it.
func checkSpins(seed int64, it, g int, atoms []int, evecs [][3]float64) error {
	for li, atom := range atoms {
		if want := spin(seed, it, g, atom); evecs[li] != want {
			return fmt.Errorf("instance %d atom %d: spin %v, want %v", g, atom, evecs[li], want)
		}
	}
	return nil
}

// checkSpinSum verifies an instance's reduced checksum against the sum
// computed here, within the tolerance of reordered floating-point addition.
func checkSpinSum(seed int64, it, g, numAtoms int, got float64) error {
	var want, mag float64
	for atom := 0; atom < numAtoms; atom++ {
		e := spin(seed, it, g, atom)
		want += spinWeight(atom, e)
		mag += spinWeight(atom, [3]float64{math.Abs(e[0]), math.Abs(e[1]), math.Abs(e[2])})
	}
	if math.Abs(got-want) > 1e-12*mag {
		return fmt.Errorf("instance %d: reduced checksum %v, want %v", g, got, want)
	}
	return nil
}

// mix hashes its arguments (splitmix64 finaliser over a running state).
func mix(xs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
