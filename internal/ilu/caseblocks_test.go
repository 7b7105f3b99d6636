package ilu_test

import (
	"fmt"
	"testing"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/precond"
	"parapre/internal/sparse"
)

// rankBlocks returns the owned subdomain block of every rank, as Block 2
// factors them, for each case at two sizes and P ∈ {1, 2, 4, 8}.
func rankBlocks(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	out := map[string]*sparse.CSR{}
	for _, c := range cases.All() {
		for _, size := range []int{c.DefaultSize/2 + 1, c.DefaultSize} {
			prob := c.Build(size)
			for _, p := range []int{1, 2, 4, 8} {
				part, err := core.Partition(prob, core.DefaultConfig(p, precond.KindBlock2))
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range dsys.Distribute(prob.A, prob.B, part, p) {
					out[fmt.Sprintf("%s/%d/P=%d/rank %d", c.Name, size, p, s.Rank)] = s.OwnedBlock()
				}
			}
		}
	}
	return out
}

// TestILUTRankBlocksMatchSortHeapOracle pins the ILUT and ILUTP factors
// of every case's rank blocks, bit for bit, to the sort-and-heap
// implementation they replaced.
func TestILUTRankBlocksMatchSortHeapOracle(t *testing.T) {
	for name, blk := range rankBlocks(t) {
		for _, opt := range ilu.OracleOptions() {
			want, werr := ilu.OracleILUT(blk, opt)
			got, gerr := ilu.ILUT(blk, opt)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%s %+v: error %v, oracle %v", name, opt, gerr, werr)
			}
			if werr == nil {
				if d := ilu.FactorDiff(got, want); d != "" {
					t.Fatalf("%s ILUT %+v: %s", name, opt, d)
				}
			}
		}
		for _, opt := range ilu.OracleOptions()[:3] {
			popt := ilu.ILUTPOptions{ILUTOptions: opt, PermTol: 1}
			want, werr := ilu.OracleILUTP(blk, popt)
			got, gerr := ilu.ILUTP(blk, popt)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%s %+v: error %v, oracle %v", name, popt, gerr, werr)
			}
			if werr == nil {
				if d := ilu.PivDiff(got, want); d != "" {
					t.Fatalf("%s ILUTP %+v: %s", name, popt, d)
				}
			}
		}
	}
}

// BenchmarkILUTFactorHeat3DBlock factors one rank block of the 3D heat
// case (tc4, size 33, P = 4: about 9k rows) with the default Block 2
// options — the setup cost of the time-stepping workload, where the
// survivor selection and the L-part ordering dominate.
func BenchmarkILUTFactorHeat3DBlock(b *testing.B) {
	c, err := cases.ByName("tc4-heat3d")
	if err != nil {
		b.Fatal(err)
	}
	prob := c.Build(33)
	part, err := core.Partition(prob, core.DefaultConfig(4, precond.KindBlock2))
	if err != nil {
		b.Fatal(err)
	}
	blk := dsys.Distribute(prob.A, prob.B, part, 4)[0].OwnedBlock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ilu.ILUT(blk, ilu.DefaultILUT()); err != nil {
			b.Fatal(err)
		}
	}
}
