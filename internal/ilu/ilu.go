// Package ilu implements the incomplete LU factorizations used by every
// preconditioner in the paper: zero fill-in ILU(0), the dual-threshold
// ILUT(τ, lfil) of Saad, the forward/backward substitution that applies
// them, and the extraction of approximate Schur-complement factors from
// the trailing block of an internal-first-ordered factorization (§2: if
// A_i = L_i·U_i with the interface unknowns ordered last, then L_S·U_S
// approximates the local Schur complement S_i).
package ilu

import (
	"math"
	"sort"
	"sync/atomic"

	"parapre/internal/par"
	"parapre/internal/sparse"
)

// LU holds an incomplete factorization A ≈ L·U with unit-diagonal L. Both
// factors are stored in one row-sorted CSR: within row i, columns < i
// belong to L (without the implicit unit diagonal) and columns ≥ i belong
// to U. Diag[i] indexes the diagonal entry of row i in M.Val.
type LU struct {
	M    *sparse.CSR
	Diag []int
	// PivotFixes counts small pivots that were replaced during the
	// factorization to keep it nonsingular (0 for well-behaved matrices).
	PivotFixes int

	// lvl caches the level schedule of the triangular sweeps — see
	// levels.go. Lazily built, atomically published (factors may be
	// shared read-only), immutable once stored.
	lvl atomic.Pointer[triSched]
}

// N returns the dimension of the factored matrix.
func (f *LU) N() int { return f.M.Rows }

// NNZ returns the number of stored factor entries.
func (f *LU) NNZ() int { return f.M.NNZ() }

// SolveFlops returns the flop count of one Solve application, for the
// virtual-time accounting in the distributed solver. The model charges 2
// flops per stored factor entry — the convention every factor type in
// this package follows. The exact kernel count is 2·NNZ(M) − n (each
// off-diagonal entry costs a multiply and a subtract; each diagonal entry
// costs one divide), so the model over-counts by exactly one flop per
// row; the round 2·NNZ form is kept because the committed goldens and
// EXPERIMENTS.md tables were produced with it. TestLUSolveFlopsModel pins
// both the model and its distance from the exact count.
func (f *LU) SolveFlops() float64 { return 2 * float64(f.M.NNZ()) }

// Solve computes x = U⁻¹·L⁻¹·b. x and b may alias. When the level
// schedule is enabled and profitable (see levels.go) the two sweeps run
// level-parallel across the par worker pool; the result is bit-identical
// to the serial sweeps at any worker count.
//
//lint:allocfree steady state once the level schedule is cached; verified dynamically by TestLUSolveZeroAllocSteadyState
func (f *LU) Solve(x, b []float64) {
	if len(x) < f.N() {
		panic("ilu: output shorter than the factor")
	}
	if s := f.sched(); s != nil {
		f.solveScheduled(x, b, s)
		return
	}
	f.forwardSerial(x, b)
	f.backwardSerial(x)
}

// forwardSerial solves L·x = b in place (unit diagonal, entries strictly
// below the diagonal).
func (f *LU) forwardSerial(x, b []float64) {
	n := f.N()
	rp, ci, vv := f.M.RowPtr, f.M.ColIdx, f.M.Val
	diag := f.Diag
	for i := 0; i < n; i++ {
		s := b[i]
		d := diag[i]
		row := vv[rp[i]:d]
		cols := ci[rp[i]:d]
		for k, v := range row {
			s -= v * x[cols[k]]
		}
		x[i] = s
	}
}

// backwardSerial solves U·x = x in place (diagonal at Diag[i]).
func (f *LU) backwardSerial(x []float64) {
	n := f.N()
	rp, ci, vv := f.M.RowPtr, f.M.ColIdx, f.M.Val
	diag := f.Diag
	for i := n - 1; i >= 0; i-- {
		d := diag[i]
		s := x[i]
		row := vv[d+1 : rp[i+1]]
		cols := ci[d+1 : rp[i+1]]
		for k, v := range row {
			s -= v * x[cols[k]]
		}
		x[i] = s / vv[d]
	}
}

// solveScheduled runs the level-scheduled sweeps. Each direction falls
// back to its serial sweep when its own level structure is too narrow
// (unless the mode forces scheduling). Writing x[i] from exactly one
// worker per row keeps the aliasing contract: a row reads only its own
// b[i] and the x entries of strictly earlier levels.
func (f *LU) solveScheduled(x, b []float64, s *triSched) {
	rp, ci, vv := f.M.RowPtr, f.M.ColIdx, f.M.Val
	diag := f.Diag
	w := par.Workers()
	force := levelMode() == LevelForce
	if force || s.fwd.profitable(w) {
		rows := s.fwd.rows
		par.ForLevels(s.fwd.ptr, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				i := rows[t]
				acc := b[i]
				d := diag[i]
				row := vv[rp[i]:d]
				cols := ci[rp[i]:d]
				for k, v := range row {
					acc -= v * x[cols[k]]
				}
				x[i] = acc
			}
		})
	} else {
		f.forwardSerial(x, b)
	}
	if force || s.bwd.profitable(w) {
		rows := s.bwd.rows
		par.ForLevels(s.bwd.ptr, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				i := rows[t]
				d := diag[i]
				acc := x[i]
				row := vv[d+1 : rp[i+1]]
				cols := ci[d+1 : rp[i+1]]
				for k, v := range row {
					acc -= v * x[cols[k]]
				}
				x[i] = acc / vv[d]
			}
		})
	} else {
		f.backwardSerial(x)
	}
}

// pivotFloor replaces near-zero pivots: |pivot| is raised to
// pivotRel·rowNorm (keeping sign), so the backward solve cannot blow up on
// structurally deficient subdomain blocks (e.g. rows eliminated by
// Dirichlet handling).
const pivotRel = 1e-8

func fixPivot(p, rowNorm float64, fixes *int) float64 {
	floor := pivotRel * rowNorm
	if floor == 0 {
		floor = pivotRel
	}
	if math.Abs(p) >= floor {
		return p
	}
	*fixes++
	if p < 0 {
		return -floor
	}
	return floor
}

// ILU0 computes the zero fill-in incomplete factorization: the factors
// jointly keep exactly the sparsity pattern of a. a must be square with a
// fully nonzero-pattern diagonal (FEM matrices after Dirichlet handling
// always have one).
func ILU0(a *sparse.CSR) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, badInputErr("ILU0", "non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	m := a.Clone()
	diag := make([]int, n)
	for i := 0; i < n; i++ {
		cols, _ := m.Row(i)
		if len(cols) == 0 {
			// A structurally empty row is a singular matrix, not a pattern
			// deficiency: report it as the typed zero-pivot error.
			return nil, zeroPivotErr("ILU0", i)
		}
		k := sort.SearchInts(cols, i)
		if k == len(cols) || cols[k] != i {
			return nil, badInputErr("ILU0", "row %d has no diagonal entry", i)
		}
		diag[i] = m.RowPtr[i] + k
	}
	f := &LU{M: m, Diag: diag}
	// pos[c] = index of column c within the current row, or -1.
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i := 0; i < n; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		var rowNorm float64
		for k := lo; k < hi; k++ {
			pos[m.ColIdx[k]] = k
			rowNorm += math.Abs(m.Val[k])
		}
		if err := checkRowNorm("ILU0", i, rowNorm); err != nil {
			return nil, err
		}
		rowNorm /= float64(hi - lo)
		for k := lo; k < diag[i]; k++ {
			kk := m.ColIdx[k] // eliminate with pivot row kk < i
			piv := m.Val[diag[kk]]
			lik := m.Val[k] / piv
			m.Val[k] = lik
			// Subtract lik · U-part of row kk, restricted to our pattern.
			for kj := diag[kk] + 1; kj < m.RowPtr[kk+1]; kj++ {
				j := m.ColIdx[kj]
				if p := pos[j]; p >= 0 {
					m.Val[p] -= lik * m.Val[kj]
				}
			}
		}
		m.Val[diag[i]] = fixPivot(m.Val[diag[i]], rowNorm, &f.PivotFixes)
		for k := lo; k < hi; k++ {
			pos[m.ColIdx[k]] = -1
		}
	}
	f.prepLevels()
	return f, nil
}
