package ilu

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"parapre/internal/sparse"
)

// ILUTOptions controls the dual-threshold factorization. The paper's ILUT
// subdomain solvers correspond to moderate fill (LFil ≈ 10–30) and a drop
// tolerance around 1e-2…1e-4.
type ILUTOptions struct {
	Tau  float64 // relative drop tolerance; entries < Tau·‖row‖ are dropped
	LFil int     // max kept entries per row in each of the L and U parts (excl. diagonal); <=0 means unlimited
}

// DefaultILUT returns the setting used by the paper-style Block 2 / Schur 1
// subdomain solvers.
func DefaultILUT() ILUTOptions { return ILUTOptions{Tau: 1e-3, LFil: 20} }

// ILUT computes the dual-threshold incomplete factorization of Saad
// (ILUT(τ, lfil)): during the elimination of each row, entries smaller
// than τ·‖row‖ (mean-magnitude row norm) are dropped, and only the LFil
// largest entries are kept in each of the row's L and U parts (the
// diagonal is always kept). With Tau = 0 and LFil ≤ 0 the factorization is
// a complete LU without pivoting.
func ILUT(a *sparse.CSR, opt ILUTOptions) (*LU, error) {
	p, err := dualThreshold("ILUT", a, opt, 0)
	if err != nil {
		return nil, err
	}
	return p.LU, nil
}

// dualThreshold is the elimination behind ILUT (method "ILUT", no
// pivoting) and ILUTP (method "ILUTP", column pivoting when permTol > 0).
// The workspace is indexed by ORIGINAL column id; the pending L-part set
// holds permuted positions. Pivoting swaps only positions ≥ i, so the
// positions < i stay fixed while row i is eliminated.
func dualThreshold(method string, a *sparse.CSR, opt ILUTOptions, permTol float64) (*PivLU, error) {
	if a.Rows != a.Cols {
		return nil, badInputErr(method, "non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	lfil := opt.LFil
	if lfil <= 0 {
		lfil = n
	}

	perm := sparse.IdentityPerm(n)  // permuted position → original column
	iperm := sparse.IdentityPerm(n) // original column → permuted position

	m := sparse.NewCSR(n, n, a.NNZ()*2)
	diag := make([]int, n)
	out := &PivLU{LU: &LU{M: m, Diag: diag}, Perm: perm}

	w := make([]float64, n)  // scatter workspace
	inRow := make([]bool, n) // membership of w
	lSet := newColSet(n)     // pending positions < i
	uCols := make([]int, 0, n)
	procL := make([]int, 0, n) // kept L columns in elimination order
	var selL, selU selector    // selectLargest scratch, reused across rows
	byPos := func(x, y int) int { return iperm[x] - iperm[y] }

	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		var rowNorm float64
		uCols = uCols[:0]
		procL = procL[:0]
		for k, j := range cols {
			w[j] = vals[k]
			inRow[j] = true
			rowNorm += math.Abs(vals[k])
			if p := iperm[j]; p < i {
				lSet.add(p)
			} else {
				uCols = append(uCols, j)
			}
		}
		// A missing diagonal joins the U part before the elimination in
		// ILUT and after it in ILUTP (see below), as it always has: the
		// candidate order decides ties in the survivor selection.
		if method == "ILUT" && !inRow[i] {
			w[i] = 0
			inRow[i] = true
			uCols = append(uCols, i)
		}
		if err := checkRowNorm(method, i, rowNorm); err != nil {
			return nil, err
		}
		rowNorm /= float64(len(cols))
		drop := opt.Tau * rowNorm

		// Eliminate in ascending position order; L fill-in joins lSet, U
		// fill-in joins uCols.
		for k := lSet.pop(i); k >= 0; k = lSet.pop(i) {
			j := perm[k] // original column at position k; k is its pivot row
			lik := w[j] / m.Val[diag[k]]
			inRow[j] = false
			if math.Abs(lik) <= drop {
				continue
			}
			w[j] = lik
			procL = append(procL, j)
			// Fill lands only at positions > k, so it can never hit an
			// already-eliminated column.
			for kj := diag[k] + 1; kj < m.RowPtr[k+1]; kj++ {
				jj := m.ColIdx[kj] // original column id (remapped later)
				delta := lik * m.Val[kj]
				if inRow[jj] {
					w[jj] -= delta
					continue
				}
				w[jj] = -delta
				inRow[jj] = true
				if p := iperm[jj]; p < i {
					lSet.add(p)
				} else {
					uCols = append(uCols, jj)
				}
			}
		}

		dcol := perm[i]
		if !inRow[dcol] {
			w[dcol] = 0
			inRow[dcol] = true
			uCols = append(uCols, dcol)
		}

		// Column pivoting: promote the largest U candidate when it beats
		// the current diagonal by the permtol margin.
		if permTol > 0 {
			best := dcol
			for _, j := range uCols {
				if math.Abs(w[j]) > math.Abs(w[best]) {
					best = j
				}
			}
			if best != dcol && math.Abs(w[best])*permTol > math.Abs(w[dcol]) {
				pi, pb := iperm[dcol], iperm[best]
				perm[pi], perm[pb] = perm[pb], perm[pi]
				iperm[dcol], iperm[best] = iperm[best], iperm[dcol]
				dcol = best
				out.Swaps++
			}
		}

		// Select survivors: largest |·| up to lfil in each part, dropping
		// small entries; diagonal always kept. Store them in position
		// order.
		lSel := selL.selectLargest(procL, w, drop, lfil, -1)
		uSel := selU.selectLargest(uCols, w, drop, lfil, dcol)
		slices.SortFunc(lSel, byPos)
		slices.SortFunc(uSel, byPos)
		for _, j := range lSel {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, w[j])
		}
		for _, j := range uSel {
			v := w[j]
			if j == dcol {
				diag[i] = len(m.ColIdx)
				v = fixPivot(v, rowNorm, &out.LU.PivotFixes)
			}
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, v)
		}
		m.RowPtr[i+1] = len(m.ColIdx)

		// Reset workspace. Dropped L columns already cleared inRow; their
		// w entries are stale but only reachable via inRow, which is false.
		for _, j := range procL {
			inRow[j] = false
			w[j] = 0
		}
		for _, j := range uCols {
			inRow[j] = false
			w[j] = 0
		}
	}
	if out.Swaps > 0 {
		if err := remapPivoted(m, diag, iperm); err != nil {
			return nil, err
		}
	}
	out.LU.prepLevels()
	return out, nil
}

// colSet is the set of pending L-part positions of the row being
// eliminated: a bitset with a forward word cursor. Fill from pivot row k
// lands only at positions > k, so every position added while a row is
// swept lies ahead of the cursor, and pop returns the ascending order of
// all positions ever added — the order a min-heap would pop them in,
// hence the same arithmetic. The sweep pops every position it adds, so
// the set is empty again at the end of each row without a reset pass.
type colSet struct {
	bits []uint64
	word int // no position below word·64 is in the set
}

func newColSet(n int) colSet { return colSet{bits: make([]uint64, (n+63)/64)} }

// add inserts position j.
func (s *colSet) add(j int) {
	s.bits[j>>6] |= 1 << (j & 63)
	s.word = min(s.word, j>>6)
}

// pop removes and returns the lowest position, or -1 when none below end
// is left.
func (s *colSet) pop(end int) int {
	for ; s.word<<6 < end; s.word++ {
		if b := s.bits[s.word]; b != 0 {
			s.bits[s.word] = b & (b - 1)
			return s.word<<6 | bits.TrailingZeros64(b)
		}
	}
	return -1
}

// selector holds the scratch of selectLargest, reused across the rows of
// one factorization.
type selector struct {
	kept []int
	top  []float64 // min-heap of the limit largest |w| seen so far
}

// selectLargest returns up to limit columns of cand with the largest |w|
// values, excluding entries ≤ drop; the column `always` (the diagonal) is
// kept unconditionally and does not count against the limit. The result
// aliases the selector's scratch and is valid until its next call; its
// order is unspecified (the caller sorts it by position).
//
// The threshold t is the limit-th largest |w|, found with a bounded
// min-heap. When exactly limit entries reach t, they are the only set a
// descending sort could keep. Otherwise a tie at t straddles the cut, and
// which tied entry survives is decided by sort.Slice's (unstable)
// internals, so that case runs the original sort on the candidates in
// their original order: the factors stay bit-identical to the full-sort
// implementation.
func (s *selector) selectLargest(cand []int, w []float64, drop float64, limit, always int) []int {
	kept := s.kept[:0]
	for _, j := range cand {
		if j == always || math.Abs(w[j]) > drop {
			kept = append(kept, j)
		}
	}
	s.kept = kept
	// Fast path: everything fits.
	count := len(kept)
	if always >= 0 {
		count--
	}
	if count <= limit {
		return kept
	}
	if t, ok := s.threshold(kept, w, limit, always); ok {
		out := kept[:0]
		for _, j := range kept {
			if j == always || math.Abs(w[j]) >= t {
				out = append(out, j)
			}
		}
		return out
	}
	sort.Slice(kept, func(a, b int) bool {
		ja, jb := kept[a], kept[b]
		if ja == always {
			return true
		}
		if jb == always {
			return false
		}
		return math.Abs(w[ja]) > math.Abs(w[jb])
	})
	if always >= 0 {
		return kept[:limit+1]
	}
	return kept[:limit]
}

// threshold returns the limit-th largest |w| over kept (excluding
// `always`) and whether exactly limit entries reach it. limit ≥ 1 and
// more than limit entries compete.
func (s *selector) threshold(kept []int, w []float64, limit, always int) (float64, bool) {
	top := s.top[:0]
	for _, j := range kept {
		if j == always {
			continue
		}
		v := math.Abs(w[j])
		if len(top) < limit {
			if top = append(top, v); len(top) == limit {
				for i := limit/2 - 1; i >= 0; i-- {
					siftDownMin(top, i)
				}
			}
		} else if v > top[0] {
			top[0] = v
			siftDownMin(top, 0)
		}
	}
	s.top = top
	t := top[0]
	reach := 0
	for _, j := range kept {
		if j != always && math.Abs(w[j]) >= t {
			reach++
		}
	}
	return t, reach == limit
}

// siftDownMin moves a[i] down to its place in the min-heap a.
func siftDownMin(a []float64, i int) {
	for {
		l := 2*i + 1
		if l >= len(a) {
			return
		}
		m := l
		if r := l + 1; r < len(a) && a[r] < a[l] {
			m = r
		}
		if a[i] <= a[m] {
			return
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
}
