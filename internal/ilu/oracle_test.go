package ilu

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"parapre/internal/sparse"
)

// This file keeps the sort-and-heap ILUT/ILUTP of earlier versions as a
// test-only oracle. The production factorizations select survivors by a
// threshold and walk the L part with a bitset; both are meant to be
// bit-for-bit equal to the oracle, and these tests (plus the rank-block
// sweep in caseblocks_test.go) hold them to it.

// Exported for the external rank-block test.
var (
	OracleILUT  = oracleILUT
	OracleILUTP = oracleILUTP
	FactorDiff  = factorDiff
	PivDiff     = pivDiff
)

// oracleOptions are the option sets every bit-identity test sweeps: the
// default, complete LU, τ = 0 with a fill cap, unlimited fill with a drop
// tolerance, lfil = 1 and a negative lfil.
var oracleOptions = []ILUTOptions{
	DefaultILUT(),
	{Tau: 0, LFil: 0},
	{Tau: 0, LFil: 5},
	{Tau: 1e-2, LFil: 0},
	{Tau: 1e-2, LFil: 10},
	{Tau: 1e-4, LFil: 1},
	{Tau: 1e-3, LFil: -3},
}

// OracleOptions returns the swept option sets.
func OracleOptions() []ILUTOptions { return oracleOptions }

// factorDiff describes the first difference between two factors, or
// returns "" when RowPtr, ColIdx, Diag, PivotFixes and the bits of Val
// are all equal.
func factorDiff(got, want *LU) string {
	switch {
	case !slices.Equal(got.M.RowPtr, want.M.RowPtr):
		return "RowPtr differs"
	case !slices.Equal(got.M.ColIdx, want.M.ColIdx):
		return "ColIdx differs"
	case !slices.Equal(got.Diag, want.Diag):
		return "Diag differs"
	case got.PivotFixes != want.PivotFixes:
		return fmt.Sprintf("PivotFixes %d, want %d", got.PivotFixes, want.PivotFixes)
	case len(got.M.Val) != len(want.M.Val):
		return "len(Val) differs"
	}
	for k, v := range got.M.Val {
		if math.Float64bits(v) != math.Float64bits(want.M.Val[k]) {
			return fmt.Sprintf("Val[%d] = %x, want %x", k, math.Float64bits(v), math.Float64bits(want.M.Val[k]))
		}
	}
	return ""
}

// pivDiff extends factorDiff with the column permutation and swap count.
func pivDiff(got, want *PivLU) string {
	if d := factorDiff(got.LU, want.LU); d != "" {
		return d
	}
	if !slices.Equal(got.Perm, want.Perm) {
		return "Perm differs"
	}
	if got.Swaps != want.Swaps {
		return fmt.Sprintf("Swaps %d, want %d", got.Swaps, want.Swaps)
	}
	return ""
}

// tieMatrix builds a random sparse n×n matrix whose off-diagonal values
// come from a few distinct magnitudes, so that ties at the lfil cut are
// common, with a dominant or (weak=true) small diagonal. Weak matrices
// leave the diagonal out of about a quarter of the rows.
func tieMatrix(rng *rand.Rand, n, perRow int, weak bool) *sparse.CSR {
	levels := []float64{-1, -0.5, 0.5, 1, 2}
	coo := sparse.NewCOO(n, n, n*(perRow+1))
	for i := 0; i < n; i++ {
		switch {
		case !weak:
			coo.Add(i, i, 4*float64(perRow))
		case rng.Intn(4) > 0:
			coo.Add(i, i, levels[rng.Intn(len(levels))]/8)
		}
		for k := 0; k < perRow; k++ {
			if j := rng.Intn(n); j != i {
				coo.Add(i, j, levels[rng.Intn(len(levels))])
			}
		}
	}
	return coo.ToCSR()
}

func TestILUTMatchesSortHeapOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.Intn(200)
		var a *sparse.CSR
		if trial%2 == 0 {
			a = tieMatrix(rng, n, 3+rng.Intn(8), trial%4 == 2)
		} else {
			a = randSPDish(rng, n, 0.02+0.1*rng.Float64())
		}
		for _, opt := range oracleOptions {
			want, werr := oracleILUT(a, opt)
			got, gerr := ILUT(a, opt)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("trial %d %+v: error %v, oracle %v", trial, opt, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if d := factorDiff(got, want); d != "" {
				t.Fatalf("trial %d n=%d %+v: %s", trial, n, opt, d)
			}
		}
	}
}

func TestILUTPMatchesSortHeapOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.Intn(200)
		a := tieMatrix(rng, n, 3+rng.Intn(8), trial%2 == 0)
		for _, opt := range oracleOptions {
			for _, pt := range []float64{0, 0.5, 1} {
				popt := ILUTPOptions{ILUTOptions: opt, PermTol: pt}
				want, werr := oracleILUTP(a, popt)
				got, gerr := ILUTP(a, popt)
				if (werr != nil) != (gerr != nil) {
					t.Fatalf("trial %d %+v: error %v, oracle %v", trial, popt, gerr, werr)
				}
				if werr != nil {
					continue
				}
				if d := pivDiff(got, want); d != "" {
					t.Fatalf("trial %d n=%d %+v: %s", trial, n, popt, d)
				}
			}
		}
	}
}

// TestSelectLargestMatchesSort draws candidates from a few distinct
// magnitudes, so ties straddling the cut are common, and requires the
// threshold selection to keep exactly the set the full sort keeps.
func TestSelectLargestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var s selector
	ties := 0
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(60)
		w := make([]float64, n)
		distinct := 1 + rng.Intn(6)
		for j := range w {
			w[j] = float64(rng.Intn(distinct)-distinct/2) / 4
		}
		if rng.Intn(10) == 0 {
			w[rng.Intn(n)] = math.Inf(1)
		}
		cand := rng.Perm(n)[:1+rng.Intn(n)]
		always := -1
		if rng.Intn(2) == 0 {
			always = cand[rng.Intn(len(cand))]
		}
		drop := []float64{-1, 0, 0.25}[rng.Intn(3)]
		limit := 1 + rng.Intn(8)

		var mags []float64
		for _, j := range cand {
			if j != always && math.Abs(w[j]) > drop {
				mags = append(mags, math.Abs(w[j]))
			}
		}
		if len(mags) > limit {
			sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
			if mags[limit-1] == mags[limit] {
				ties++
			}
		}

		want := sortSelectLargest(nil, cand, w, drop, limit, always)
		got := s.selectLargest(cand, w, drop, limit, always)
		g, wt := slices.Clone(got), slices.Clone(want)
		slices.Sort(g)
		slices.Sort(wt)
		if !slices.Equal(g, wt) {
			t.Fatalf("trial %d: cand %v w %v drop %v limit %d always %d: got %v, want %v",
				trial, cand, w, drop, limit, always, g, wt)
		}
	}
	if ties == 0 {
		t.Fatal("no selection hit a tie at the cut; the sort fallback went untested")
	}
}

// sortSelectLargest is the full-sort selection of earlier versions.
func sortSelectLargest(dst, cand []int, w []float64, drop float64, limit, always int) []int {
	kept := dst[:0]
	for _, j := range cand {
		if j == always || math.Abs(w[j]) > drop {
			kept = append(kept, j)
		}
	}
	count := len(kept)
	if always >= 0 {
		count--
	}
	if count <= limit {
		return kept
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

// heapInts is the column min-heap of earlier versions.
type heapInts struct {
	a   []int
	key []int // nil: key is the column itself
}

func (h *heapInts) less(x, y int) bool {
	if h.key == nil {
		return x < y
	}
	return h.key[x] < h.key[y]
}

func (h *heapInts) init() {
	for i := len(h.a)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *heapInts) push(x int) {
	h.a = append(h.a, x)
	for i := len(h.a) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(h.a[i], h.a[p]) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *heapInts) pop() int {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a = h.a[:n]
	h.down(0)
	return top
}

func (h *heapInts) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h.a) {
			return
		}
		m := l
		if r := l + 1; r < len(h.a) && h.less(h.a[r], h.a[l]) {
			m = r
		}
		if !h.less(h.a[m], h.a[i]) {
			return
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
}

// oracleILUT is the sort-and-heap ILUT of earlier versions.
func oracleILUT(a *sparse.CSR, opt ILUTOptions) (*LU, error) {
	n := a.Rows
	lfil := opt.LFil
	if lfil <= 0 {
		lfil = n
	}
	m := sparse.NewCSR(n, n, a.NNZ()*2)
	diag := make([]int, n)
	f := &LU{M: m, Diag: diag}
	w := make([]float64, n)
	inRow := make([]bool, n)
	var lCols heapInts
	uCols := make([]int, 0, n)
	procL := make([]int, 0, n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		var rowNorm float64
		lCols.a = lCols.a[:0]
		uCols = uCols[:0]
		procL = procL[:0]
		diagSeen := false
		for k, j := range cols {
			w[j] = vals[k]
			inRow[j] = true
			rowNorm += math.Abs(vals[k])
			if j < i {
				lCols.a = append(lCols.a, j)
			} else {
				uCols = append(uCols, j)
				diagSeen = diagSeen || j == i
			}
		}
		if !diagSeen {
			w[i] = 0
			inRow[i] = true
			uCols = append(uCols, i)
		}
		if rowNorm == 0 {
			return nil, fmt.Errorf("oracle: zero row %d", i)
		}
		rowNorm /= float64(len(cols))
		drop := opt.Tau * rowNorm
		lCols.init()
		for len(lCols.a) > 0 {
			k := lCols.pop()
			lik := w[k] / m.Val[diag[k]]
			inRow[k] = false
			if math.Abs(lik) <= drop {
				continue
			}
			w[k] = lik
			procL = append(procL, k)
			for kj := diag[k] + 1; kj < m.RowPtr[k+1]; kj++ {
				j := m.ColIdx[kj]
				delta := lik * m.Val[kj]
				if inRow[j] {
					w[j] -= delta
					continue
				}
				w[j] = -delta
				inRow[j] = true
				if j < i {
					lCols.push(j)
				} else {
					uCols = append(uCols, j)
				}
			}
		}
		lSel := sortSelectLargest(nil, procL, w, drop, lfil, -1)
		uSel := sortSelectLargest(nil, uCols, w, drop, lfil, i)
		sort.Ints(lSel)
		sort.Ints(uSel)
		for _, j := range lSel {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, w[j])
		}
		for _, j := range uSel {
			v := w[j]
			if j == i {
				diag[i] = len(m.ColIdx)
				v = fixPivot(v, rowNorm, &f.PivotFixes)
			}
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, v)
		}
		m.RowPtr[i+1] = len(m.ColIdx)
		for _, j := range procL {
			inRow[j] = false
			w[j] = 0
		}
		for _, j := range uCols {
			inRow[j] = false
			w[j] = 0
		}
	}
	return f, nil
}

// oracleILUTP is the sort-and-heap ILUTP of earlier versions.
func oracleILUTP(a *sparse.CSR, opt ILUTPOptions) (*PivLU, error) {
	n := a.Rows
	lfil := opt.LFil
	if lfil <= 0 {
		lfil = n
	}
	perm := sparse.IdentityPerm(n)
	iperm := sparse.IdentityPerm(n)
	m := sparse.NewCSR(n, n, a.NNZ()*2)
	diag := make([]int, n)
	out := &PivLU{LU: &LU{M: m, Diag: diag}, Perm: perm}
	w := make([]float64, n)
	inRow := make([]bool, n)
	lCols := heapInts{key: iperm}
	uCols := make([]int, 0, n)
	procL := make([]int, 0, n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		var rowNorm float64
		lCols.a = lCols.a[:0]
		uCols = uCols[:0]
		procL = procL[:0]
		for k, j := range cols {
			w[j] = vals[k]
			inRow[j] = true
			rowNorm += math.Abs(vals[k])
			if iperm[j] < i {
				lCols.a = append(lCols.a, j)
			} else {
				uCols = append(uCols, j)
			}
		}
		if rowNorm == 0 {
			return nil, fmt.Errorf("oracle: zero row %d", i)
		}
		rowNorm /= float64(len(cols))
		drop := opt.Tau * rowNorm
		lCols.init()
		for len(lCols.a) > 0 {
			j := lCols.pop()
			k := iperm[j]
			lik := w[j] / m.Val[diag[k]]
			inRow[j] = false
			if math.Abs(lik) <= drop {
				continue
			}
			w[j] = lik
			procL = append(procL, j)
			for kj := diag[k] + 1; kj < m.RowPtr[k+1]; kj++ {
				jj := m.ColIdx[kj]
				delta := lik * m.Val[kj]
				if inRow[jj] {
					w[jj] -= delta
					continue
				}
				w[jj] = -delta
				inRow[jj] = true
				if iperm[jj] < i {
					lCols.push(jj)
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
		if opt.PermTol > 0 {
			best := dcol
			for _, j := range uCols {
				if math.Abs(w[j]) > math.Abs(w[best]) {
					best = j
				}
			}
			if best != dcol && math.Abs(w[best])*opt.PermTol > math.Abs(w[dcol]) {
				pi, pb := iperm[dcol], iperm[best]
				perm[pi], perm[pb] = perm[pb], perm[pi]
				iperm[dcol], iperm[best] = iperm[best], iperm[dcol]
				dcol = best
				out.Swaps++
			}
		}
		lSel := sortSelectLargest(nil, procL, w, drop, lfil, -1)
		uSel := sortSelectLargest(nil, uCols, w, drop, lfil, dcol)
		sort.Slice(lSel, func(x, y int) bool { return iperm[lSel[x]] < iperm[lSel[y]] })
		sort.Slice(uSel, func(x, y int) bool { return iperm[uSel[x]] < iperm[uSel[y]] })
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
		for _, j := range procL {
			inRow[j] = false
			w[j] = 0
		}
		for _, j := range uCols {
			inRow[j] = false
			w[j] = 0
		}
	}
	for k, j := range m.ColIdx {
		m.ColIdx[k] = iperm[j]
	}
	for i := 0; i < n; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		d := m.ColIdx[diag[i]]
		sortRowAligned(m.ColIdx[lo:hi], m.Val[lo:hi])
		for k := lo; k < hi; k++ {
			if m.ColIdx[k] == d {
				diag[i] = k
				break
			}
		}
	}
	return out, nil
}
