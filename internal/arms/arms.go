package arms

import (
	"fmt"
	"math"
	"slices"

	"parapre/internal/ilu"
	"parapre/internal/sparse"
)

// Options configures the multilevel construction.
type Options struct {
	Levels   int     // reduction levels; the paper's Schur 2 uses 2
	MaxGroup int     // group-size cap for the independent sets
	DropTol  float64 // relative drop tolerance for Schur-complement assembly
	ILUT     ilu.ILUTOptions
}

// DefaultOptions matches the two-level ARMS the paper uses.
func DefaultOptions() Options {
	return Options{Levels: 2, MaxGroup: 24, DropTol: 1e-4, ILUT: ilu.DefaultILUT()}
}

// Reduction is one independent-set reduction step: the permuted matrix
// splits as [B F; E C] with exactly block-diagonal B (by
// group-independent-set construction); BlockLU holds the dense
// factorization of each B block and S the (dropped) Schur complement
// C − E·B⁻¹·F that the next level acts on.
type Reduction struct {
	Perm    sparse.Perm // new→old within this level's matrix
	NB      int         // size of the grouped (B) part
	Blocks  [][2]int    // contiguous extent of each group in the new order
	BlockLU []*sparse.LU
	F, E    *sparse.CSR // coupling blocks of the permuted matrix
	S       *sparse.CSR // reduced (Schur) matrix
}

// SolveB applies the exact block-diagonal solve out = B⁻¹·in. out and in
// must not alias.
//
//lint:allocfree dense block solves into the caller's slice; verified dynamically by TestReductionSolveBZeroAlloc
func (r *Reduction) SolveB(out, in []float64) {
	for g, ext := range r.Blocks {
		r.BlockLU[g].SolveTo(out[ext[0]:ext[1]], in[ext[0]:ext[1]])
	}
}

// SolveBFlops returns the flop count of one SolveB.
func (r *Reduction) SolveBFlops() float64 {
	var f float64
	for _, ext := range r.Blocks {
		sz := float64(ext[1] - ext[0])
		f += 2 * sz * sz
	}
	return f
}

// Reduce performs one independent-set reduction of a: it groups all but
// the trailing nSep unknowns (groups capped at maxGroup), permutes the
// grouped unknowns first, factors the block-diagonal B exactly, and
// assembles S = C − E·B⁻¹·F with relative drop tolerance dropTol. It
// returns a nil Reduction (no error) when no unknown could be grouped. It
// serves both the multilevel Solver (nSep = 0) and Schur 2, which forces
// its interdomain interface unknowns into the separator.
func Reduce(a *sparse.CSR, nSep, maxGroup int, dropTol float64) (*Reduction, error) {
	group, ng := GroupIndependentSet(a, nSep, maxGroup)
	perm, nB, blocks := IndSetPerm(group, ng)
	if nB == 0 {
		return nil, nil
	}
	b, f, e, c := sparse.SplitAt(sparse.PermuteSym(a, perm), nB)
	red := &Reduction{Perm: perm, NB: nB, Blocks: blocks, F: f, E: e,
		BlockLU: make([]*sparse.LU, len(blocks))}
	for g, ext := range blocks {
		lu, err := blockDense(b, ext[0], ext[1]).Factor()
		if err != nil {
			return nil, fmt.Errorf("arms: group %d: %w", g, err)
		}
		red.BlockLU[g] = lu
	}
	red.S = AssembleSchur(c, e, f, red, dropTol)
	return red, nil
}

// Solver is a multilevel ARMS preconditioner for a sequential (subdomain-
// local) matrix.
type Solver struct {
	n      int
	levels []*Reduction
	last   *ilu.LU // ILUT factorization of the final reduced matrix
	scr    []levelScratch
}

// levelScratch holds one level's Apply temporaries: the permuted
// right-hand side [r_B | r_C], u_B, z_C, and the correction B⁻¹·F·z_C.
type levelScratch struct {
	work, uB, zC, corr []float64
}

// N returns the dimension of the preconditioned matrix.
func (s *Solver) N() int { return s.n }

// SolveFlops estimates the flop count of one Apply, for virtual-time
// accounting.
func (s *Solver) SolveFlops() float64 {
	var f float64
	for _, l := range s.levels {
		f += 2*l.SolveBFlops() + 2*float64(l.E.NNZ()) + 2*float64(l.F.NNZ())
	}
	f += s.last.SolveFlops()
	return f
}

// New builds the ARMS hierarchy for matrix a.
func New(a *sparse.CSR, opt Options) (*Solver, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("arms: non-square %d×%d matrix", a.Rows, a.Cols)
	}
	if opt.Levels < 1 {
		opt.Levels = 1
	}
	if opt.MaxGroup < 1 {
		opt.MaxGroup = DefaultOptions().MaxGroup
	}
	s := &Solver{n: a.Rows}
	cur := a
	for lev := 0; lev < opt.Levels; lev++ {
		red, err := Reduce(cur, 0, opt.MaxGroup, opt.DropTol)
		if err != nil {
			return nil, fmt.Errorf("arms: level %d: %w", lev, err)
		}
		if red == nil || red.NB == cur.Rows {
			// Nothing could be grouped, or everything was and no S is
			// left to recurse on: stop stacking levels.
			break
		}
		s.levels = append(s.levels, red)
		cur = red.S
	}
	lastLU, err := ilu.ILUT(cur, opt.ILUT)
	if err != nil {
		return nil, fmt.Errorf("arms: final level: %w", err)
	}
	s.last = lastLU

	dim := s.n
	for _, l := range s.levels {
		s.scr = append(s.scr, levelScratch{
			work: make([]float64, dim),
			uB:   make([]float64, l.NB),
			zC:   make([]float64, dim-l.NB),
			corr: make([]float64, l.NB),
		})
		dim -= l.NB
	}
	return s, nil
}

// blockDense copies the diagonal block B[lo:hi, lo:hi] into dense storage.
func blockDense(b *sparse.CSR, lo, hi int) *sparse.Dense {
	d := sparse.NewDense(hi-lo, hi-lo)
	for i := lo; i < hi; i++ {
		cols, vals := b.Row(i)
		for k, j := range cols {
			if j >= lo && j < hi {
				d.Set(i-lo, j-lo, vals[k])
			}
		}
	}
	return d
}

// AssembleSchur computes S = C − E·B⁻¹·F with per-row relative dropping,
// using the reduction's exact block-diagonal solves for B⁻¹.
//
// Each group's W_g = B_g⁻¹·F_g is formed once, densely over the column
// support of F_g. Each row of S is then summed in a dense accumulator, C's
// row first, then −e_ij·W_g[j, :] for E's entries in column order; its
// distinct columns are sorted, dropped and appended. The cost is
// O(nnz(E)·|support|) plus one dense solve per support column.
func AssembleSchur(c, e, f *sparse.CSR, l *Reduction, dropTol float64) *sparse.CSR {
	nc := c.Rows
	// W_g, column-major over sup[g]. pos maps an F column to its place in
	// the support of the current group (−1 outside it).
	sup := make([][]int, len(l.Blocks))
	w := make([][]float64, len(l.Blocks))
	pos := make([]int, f.Cols)
	for j := range pos {
		pos[j] = -1
	}
	var fd []float64
	for g, ext := range l.Blocks {
		lo, hi := ext[0], ext[1]
		for r := lo; r < hi; r++ {
			cols, _ := f.Row(r)
			for _, j := range cols {
				if pos[j] < 0 {
					pos[j] = len(sup[g])
					sup[g] = append(sup[g], j)
				}
			}
		}
		sz, ns := hi-lo, len(sup[g])
		if ns == 0 {
			continue
		}
		// Scatter F_g column-major, so each support column is one
		// contiguous right-hand side.
		fd = slices.Grow(fd[:0], sz*ns)[:sz*ns]
		clear(fd)
		for r := lo; r < hi; r++ {
			cols, vals := f.Row(r)
			for k, j := range cols {
				fd[pos[j]*sz+r-lo] = vals[k]
			}
		}
		w[g] = make([]float64, sz*ns)
		for o := 0; o < sz*ns; o += sz {
			l.BlockLU[g].SolveTo(w[g][o:o+sz], fd[o:o+sz])
		}
		for _, j := range sup[g] {
			pos[j] = -1
		}
	}

	colGroup := make([]int, l.NB)
	for g, ext := range l.Blocks {
		for j := ext[0]; j < ext[1]; j++ {
			colGroup[j] = g
		}
	}
	// Size S once: C's entries plus, per row, the support of every group
	// its E entries reach bound the row's distinct columns.
	bound := c.NNZ()
	for i := 0; i < nc; i++ {
		cols, _ := e.Row(i)
		for k, j := range cols {
			if k == 0 || colGroup[j] != colGroup[cols[k-1]] {
				bound += len(sup[colGroup[j]])
			}
		}
	}
	s := sparse.NewCSR(nc, nc, bound)
	acc := make([]float64, nc)
	seen := make([]int, nc) // i+1 once column j holds a row-i entry
	var idx []int
	for i := 0; i < nc; i++ {
		idx = idx[:0]
		cols, vals := c.Row(i)
		for k, j := range cols {
			if seen[j] != i+1 {
				seen[j], acc[j] = i+1, 0
				idx = append(idx, j)
			}
			acc[j] += vals[k]
		}
		cols, vals = e.Row(i)
		for k, j := range cols {
			g := colGroup[j]
			sz, r := l.Blocks[g][1]-l.Blocks[g][0], j-l.Blocks[g][0]
			for sc, jj := range sup[g] {
				v := vals[k] * w[g][sc*sz+r]
				if v == 0 {
					continue
				}
				if seen[jj] != i+1 {
					seen[jj], acc[jj] = i+1, 0
					idx = append(idx, jj)
				}
				acc[jj] -= v
			}
		}
		// Keep the diagonal and, with dropTol > 0, every entry above
		// dropTol·(mean row magnitude).
		slices.Sort(idx)
		var norm float64
		for _, j := range idx {
			norm += math.Abs(acc[j])
		}
		thresh := dropTol * (norm / float64(len(idx)))
		for _, j := range idx {
			if dropTol <= 0 || j == i || math.Abs(acc[j]) > thresh {
				s.ColIdx = append(s.ColIdx, j)
				s.Val = append(s.Val, acc[j])
			}
		}
		s.RowPtr[i+1] = len(s.ColIdx)
	}
	// S lives as long as the preconditioner: drop the bound's slack.
	s.ColIdx, s.Val = slices.Clone(s.ColIdx), slices.Clone(s.Val)
	return s
}

// Apply computes z = M⁻¹·r through the multilevel hierarchy:
// per level, u_B = B⁻¹r_B; r_C' = r_C − E·u_B; recurse on r_C'; then
// u_B −= B⁻¹·F·z_C. z and r must have length N(); they may alias.
//
//lint:allocfree per-level scratch is built by New; verified dynamically by TestSolverApplyZeroAlloc
func (s *Solver) Apply(z, r []float64) {
	s.applyLevel(0, z, r)
}

func (s *Solver) applyLevel(lev int, z, r []float64) {
	if lev == len(s.levels) {
		s.last.Solve(z, r)
		return
	}
	l, w := s.levels[lev], &s.scr[lev]
	for i, old := range l.Perm {
		w.work[i] = r[old]
	}
	rB := w.work[:l.NB]
	rC := w.work[l.NB:]

	// u_B = B⁻¹ r_B (exact block solves).
	l.SolveB(w.uB, rB)

	// r_C' = r_C − E·u_B.
	l.E.MulVecSub(rC, w.uB)

	// Recurse.
	s.applyLevel(lev+1, w.zC, rC)

	// u_B −= B⁻¹·F·z_C; r_B is spent, so F·z_C reuses its storage.
	fz := rB
	l.F.MulVecTo(fz, w.zC)
	l.SolveB(w.corr, fz)
	for i := range w.uB {
		w.uB[i] -= w.corr[i]
	}

	// Un-permute into z.
	for i, old := range l.Perm[:l.NB] {
		z[old] = w.uB[i]
	}
	for i, old := range l.Perm[l.NB:] {
		z[old] = w.zC[i]
	}
}
