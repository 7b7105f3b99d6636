package ilu

import (
	"fmt"

	"parapre/internal/sparse"
)

// PivLU is an incomplete factorization with column pivoting:
// A·Qᵀ ≈ L·U, where Q is the accumulated column permutation. Solve applies
// the factors and scatters through the permutation.
type PivLU struct {
	LU   *LU
	Perm sparse.Perm // Perm[k] = original column at permuted position k
	// Swaps counts the pivoting swaps performed (0 ⇒ identical to ILUT).
	Swaps int

	// tmp holds the pre-permutation solution between the factor solve and
	// the scatter. Pooling it makes Solve allocation-free, at the price of
	// a contract every current caller already satisfies: one PivLU must
	// not be applied concurrently from multiple goroutines (each rank's
	// preconditioner owns its own instance).
	tmp []float64
}

// Solve computes x with A·x = b (approximately): x = Qᵀ·U⁻¹·L⁻¹·b.
func (p *PivLU) Solve(x, b []float64) {
	n := p.LU.N()
	if cap(p.tmp) < n {
		p.tmp = make([]float64, n)
	}
	tmp := p.tmp[:n]
	p.LU.Solve(tmp, b)
	for k := 0; k < n; k++ {
		x[p.Perm[k]] = tmp[k]
	}
}

// SolveFlops returns the flop count of one Solve: the factor application
// (see LU.SolveFlops); the permutation scatter moves data but performs no
// arithmetic.
func (p *PivLU) SolveFlops() float64 { return p.LU.SolveFlops() }

// ILUTPOptions extends ILUT with the pivoting tolerance: at step i the
// largest U-part candidate replaces the diagonal when
// |w_max| · PermTol > |w_diag|. PermTol = 0 disables pivoting (plain
// ILUT); the SPARSKIT default is 0.5–1.
type ILUTPOptions struct {
	ILUTOptions
	PermTol float64
}

// ILUTP computes the dual-threshold incomplete factorization with column
// pivoting (Saad's ILUTP). It handles matrices with zero or weak
// diagonals — e.g. strongly convective problems or saddle-point-like
// blocks — where plain ILUT would need pivot fixes.
func ILUTP(a *sparse.CSR, opt ILUTPOptions) (*PivLU, error) {
	return dualThreshold("ILUTP", a, opt.ILUTOptions, opt.PermTol)
}

// remapPivoted turns the stored original column ids into permuted
// positions and re-sorts the rows: the factor becomes a standard LU in
// the permuted space. Without swaps the ids already are positions.
func remapPivoted(m *sparse.CSR, diag []int, iperm sparse.Perm) error {
	for k, j := range m.ColIdx {
		m.ColIdx[k] = iperm[j]
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		d := m.ColIdx[diag[i]]
		sortRowAligned(m.ColIdx[lo:hi], m.Val[lo:hi])
		// Relocate the diagonal index after sorting.
		for k := lo; k < hi; k++ {
			if m.ColIdx[k] == d {
				diag[i] = k
				break
			}
		}
		if m.ColIdx[diag[i]] != i {
			return fmt.Errorf("ilu: ILUTP pivot relocation failed at row %d (found column %d): %w", i, m.ColIdx[diag[i]], ErrInternal)
		}
	}
	return nil
}

func sortRowAligned(cols []int, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}
