package sparse

import "fmt"

// Perm is a permutation of {0, …, n−1}. p[i] = j means "new position i
// holds old index j", i.e. applying p to a vector x yields y[i] = x[p[i]].
type Perm []int

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Inverse returns q with q[p[i]] = i.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, v := range p {
		q[v] = i
	}
	return q
}

// IsValid reports whether p is a bijection on {0,…,len(p)−1}.
func (p Perm) IsValid() bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// checkVecDims panics unless both vectors cover the permutation's range.
// Permutation entries are computed indices, so a short argument would be
// a silent out-of-bounds access without this guard.
func (p Perm) checkVecDims(op string, ny, nx int) {
	if ny < len(p) || nx < len(p) {
		panic(fmt.Sprintf("sparse: Perm.%s needs vectors of length ≥ %d, got len(y)=%d, len(x)=%d",
			op, len(p), ny, nx))
	}
}

// ApplyVec gathers x through the permutation: y[i] = x[p[i]].
func (p Perm) ApplyVec(x []float64) []float64 {
	p.checkVecDims("ApplyVec", len(p), len(x))
	y := make([]float64, len(p))
	for i, v := range p {
		y[i] = x[v]
	}
	return y
}

// ApplyVecTo gathers x through the permutation into y.
func (p Perm) ApplyVecTo(y, x []float64) {
	p.checkVecDims("ApplyVecTo", len(y), len(x))
	for i, v := range p {
		y[i] = x[v]
	}
}

// ScatterVecTo scatters x back through the permutation: y[p[i]] = x[i].
// It inverts ApplyVecTo.
func (p Perm) ScatterVecTo(y, x []float64) {
	p.checkVecDims("ScatterVecTo", len(y), len(x))
	for i, v := range p {
		y[v] = x[i]
	}
}

// PermuteSym returns P·A·Pᵀ for the symmetric permutation defined by p:
// entry (i, j) of the result is A(p[i], p[j]). Rows of the result are
// sorted.
func PermuteSym(a *CSR, p Perm) *CSR {
	if a.Rows != a.Cols || len(p) != a.Rows {
		panic(fmt.Sprintf("sparse: PermuteSym needs square matrix and matching perm (A %d×%d, len(p)=%d)",
			a.Rows, a.Cols, len(p)))
	}
	inv := p.Inverse()
	b := NewCSR(a.Rows, a.Cols, a.NNZ())
	for i := 0; i < b.Rows; i++ {
		old := p[i]
		cols, vals := a.Row(old)
		start := len(b.ColIdx)
		for k, j := range cols {
			b.ColIdx = append(b.ColIdx, inv[j])
			b.Val = append(b.Val, vals[k])
		}
		b.RowPtr[i+1] = len(b.ColIdx)
		sort2(b.ColIdx[start:], b.Val[start:])
	}
	return b
}

// sort2 sorts cols ascending, moving vals along. Insertion sort: rows are
// short (tens of entries at most in FEM matrices).
func sort2(cols []int, vals []float64) {
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

// SplitAt splits A at index k into the 2×2 block form [B F; E C], with
// B = A[:k, :k], F = A[:k, k:], E = A[k:, :k] and C = A[k:, k:]. Each
// block equals Extract over the same contiguous ranges, but the four are
// sized exactly and filled in one pass over A, with no index maps.
func SplitAt(a *CSR, k int) (b, f, e, c *CSR) {
	if k < 0 || k > a.Rows || k > a.Cols {
		panic(fmt.Sprintf("sparse: SplitAt(%d) of %d×%d matrix", k, a.Rows, a.Cols))
	}
	head := a.RowPtr[k] // entries in the leading k rows
	var nB, nE int
	for p, j := range a.ColIdx {
		if j < k && p < head {
			nB++
		} else if j < k {
			nE++
		}
	}
	blk := [4]*CSR{
		NewCSR(k, k, nB), NewCSR(k, a.Cols-k, head-nB),
		NewCSR(a.Rows-k, k, nE), NewCSR(a.Rows-k, a.Cols-k, a.NNZ()-head-nE),
	}
	for i := 0; i < a.Rows; i++ {
		lead, r := 0, i // B and F take the leading rows, E and C the rest
		if i >= k {
			lead, r = 2, i-k
		}
		cols, vals := a.Row(i)
		for t, j := range cols {
			m := blk[lead]
			if j >= k {
				m, j = blk[lead+1], j-k
			}
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, vals[t])
		}
		for _, m := range blk[lead : lead+2] {
			start := m.RowPtr[r]
			m.RowPtr[r+1] = len(m.ColIdx)
			sort2(m.ColIdx[start:], m.Val[start:])
		}
	}
	return blk[0], blk[1], blk[2], blk[3]
}

// Extract returns the submatrix A(rows, cols) in CSR form, where rows and
// cols are index lists into A. Entry (i, j) of the result is
// A(rows[i], cols[j]). Columns of A not listed in cols are dropped.
func Extract(a *CSR, rows, cols []int) *CSR {
	colMap := make(map[int]int, len(cols))
	for newJ, oldJ := range cols {
		colMap[oldJ] = newJ
	}
	b := NewCSR(len(rows), len(cols), 0)
	for i, oldI := range rows {
		cs, vs := a.Row(oldI)
		start := len(b.ColIdx)
		for k, j := range cs {
			if nj, ok := colMap[j]; ok {
				b.ColIdx = append(b.ColIdx, nj)
				b.Val = append(b.Val, vs[k])
			}
		}
		b.RowPtr[i+1] = len(b.ColIdx)
		sort2(b.ColIdx[start:], b.Val[start:])
	}
	return b
}
