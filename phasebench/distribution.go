package main

import (
	"fmt"
	"sync"

	"commintent/internal/core"
	"commintent/internal/mpi"
	"commintent/internal/spmd"
	"commintent/internal/wllsms"
)

// newDistribution is Fig. 3's atom distribution on 1 + groups*groupSize
// ranks with t potential rows (about 32*t bytes per atom) and the derived
// scalar datatype: the master stages the atom set to every instance's
// privileged rank, which sends each atom to its owner through one
// comm_parameters region lowered to two-sided MPI. Every iteration
// redistributes into storage zeroed beforehand, so the phase is
// bytes-bound: pack/unpack, payload buffers and rendezvous copies.
func newDistribution(groups, groupSize, t int) *workload {
	p := wllsms.DefaultParams()
	p.Groups = groups
	p.GroupSize = groupSize
	p.NumAtoms = groupSize
	p.TRows = t
	return &workload{
		name:  "atom_distribution",
		ranks: p.NProcs(),
		prepare: func(seed int64, _ *rankSpans) (rankSetup, error) {
			p := p
			p.Seed = seed
			ref := referenceAtoms(p)
			return func(rk *spmd.Rank, sp *rankSpans) (phase, error) {
				t := sp.begin()
				app, err := wllsms.Setup(rk, p)
				sp.end(spanWllsmsSetup, t)
				if err != nil {
					return nil, err
				}
				return &distRank{app: app, ref: ref}, nil
			}, nil
		},
	}
}

// refAtoms caches the regenerated atom sets by parameters: every set-up of
// a run checks against the same reference.
var refAtoms = struct {
	sync.Mutex
	m map[wllsms.Params][]*wllsms.AtomData
}{m: map[wllsms.Params][]*wllsms.AtomData{}}

// referenceAtoms regenerates the atom set from the seed, as the input
// generator defines it, apart from any communication.
func referenceAtoms(p wllsms.Params) []*wllsms.AtomData {
	refAtoms.Lock()
	defer refAtoms.Unlock()
	if ref, ok := refAtoms.m[p]; ok {
		return ref
	}
	rng := wllsms.NewSeededRNG(p.Seed)
	ref := make([]*wllsms.AtomData, p.NumAtoms)
	for i := range ref {
		ref[i] = wllsms.GenerateAtom(i, p.TRows, p.CoreRows, rng)
	}
	refAtoms.m[p] = ref
	return ref
}

type distRank struct {
	app *wllsms.App
	ref []*wllsms.AtomData
}

func (d *distRank) world() *mpi.Comm { return d.app.World }

// prep zeroes every destination of the distribution: the owned atoms and,
// on privileged ranks, the staged atom set.
func (d *distRank) prep(int) {
	a := d.app
	for _, atom := range a.Local {
		zeroAtom(atom)
	}
	if a.Role == wllsms.RolePrivileged {
		for _, atom := range a.AllAtoms {
			zeroAtom(atom)
		}
	}
}

func (d *distRank) step(_ int, sp *rankSpans) error {
	t := sp.begin()
	_, err := d.app.DistributeAtoms(wllsms.VariantDirective, core.TargetMPI2Side)
	sp.end(spanDistribute, t)
	return err
}

func (d *distRank) check(int) error {
	a := d.app
	for li, atom := range a.LocalAtoms {
		if err := checkAtom(a.Local[li], d.ref[atom]); err != nil {
			return fmt.Errorf("atom %d: %w", atom, err)
		}
	}
	return nil
}

func zeroAtom(a *wllsms.AtomData) {
	a.Scalars = wllsms.AtomScalars{}
	clear(a.VR)
	clear(a.RhoTot)
	clear(a.EC)
	clear(a.NC)
	clear(a.LC)
	clear(a.KC)
}

// checkAtom compares every communicated field of got with want.
func checkAtom(got, want *wllsms.AtomData) error {
	if got.Scalars != want.Scalars {
		return fmt.Errorf("scalars differ: %+v", got.Scalars)
	}
	if err := sameElems("vr", got.VR, want.VR); err != nil {
		return err
	}
	if err := sameElems("rhotot", got.RhoTot, want.RhoTot); err != nil {
		return err
	}
	if err := sameElems("ec", got.EC, want.EC); err != nil {
		return err
	}
	if err := sameElems("nc", got.NC, want.NC); err != nil {
		return err
	}
	if err := sameElems("lc", got.LC, want.LC); err != nil {
		return err
	}
	return sameElems("kc", got.KC, want.KC)
}

func sameElems[T float64 | int32](field string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d elements, want %d", field, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %v, want %v", field, i, got[i], want[i])
		}
	}
	return nil
}
