package arms

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parapre/internal/ilu"
	"parapre/internal/par"
	"parapre/internal/sparse"
)

// randUnsym returns a random n×n matrix with a structurally symmetric
// pattern (the independent-set construction needs one) but unsymmetric
// values, made strictly diagonally dominant so every group block is
// nonsingular.
func randUnsym(rng *rand.Rand, n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 6*n)
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			u, v := rng.Float64()*2-1, rng.Float64()*2-1
			coo.Add(i, j, u)
			coo.Add(j, i, v)
			rowSum[i] += math.Abs(u)
			rowSum[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, rowSum[i]+1+rng.Float64())
	}
	return coo.ToCSR()
}

// denseSchur computes C − E·B⁻¹·F of the permuted matrix densely, with
// one LU of the whole leading block.
func denseSchur(t *testing.T, p *sparse.CSR, nB int) *sparse.Dense {
	t.Helper()
	n := p.Rows
	nc := n - nB
	d := p.Dense()
	b := sparse.NewDense(nB, nB)
	for i := 0; i < nB; i++ {
		for j := 0; j < nB; j++ {
			b.Set(i, j, d.At(i, j))
		}
	}
	lu, err := b.Factor()
	if err != nil {
		t.Fatalf("dense B: %v", err)
	}
	s := sparse.NewDense(nc, nc)
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			s.Set(i, j, d.At(nB+i, nB+j))
		}
	}
	col := make([]float64, nB)
	for j := 0; j < nc; j++ {
		for i := 0; i < nB; i++ {
			col[i] = d.At(i, nB+j)
		}
		w := lu.Solve(col) // B⁻¹·F[:, j]
		for i := 0; i < nc; i++ {
			var ew float64
			for k := 0; k < nB; k++ {
				ew += d.At(nB+i, k) * w[k]
			}
			s.Add(i, j, -ew)
		}
	}
	return s
}

// Without dropping, the row-wise assembly must reproduce the dense Schur
// complement: the same pattern (C's entries plus every nonzero of
// E·B⁻¹·F) and the same values to rounding.
func TestAssembleSchurMatchesDense(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		a := randUnsym(rng, n)
		nSep := 0
		if seed%2 == 0 {
			nSep = rng.Intn(n / 2)
		}
		maxG := 1 + rng.Intn(12)
		red, err := Reduce(a, nSep, maxG, 0)
		if err != nil {
			t.Fatalf("seed %d: Reduce: %v", seed, err)
		}
		if red == nil {
			continue
		}
		p := sparse.PermuteSym(a, red.Perm)
		want := denseSchur(t, p, red.NB)
		nc := n - red.NB
		for i := 0; i < nc; i++ {
			var scale float64
			for j := 0; j < nc; j++ {
				scale = math.Max(scale, math.Abs(want.At(i, j)))
			}
			got := make([]bool, nc)
			cols, vals := red.S.Row(i)
			for k, j := range cols {
				got[j] = true
				if d := math.Abs(vals[k] - want.At(i, j)); d > 1e-13*scale {
					t.Fatalf("seed %d: S(%d,%d) = %v, dense %v", seed, i, j, vals[k], want.At(i, j))
				}
			}
			for j := 0; j < nc; j++ {
				if need := hasEntry(p, red.NB+i, red.NB+j) || want.At(i, j) != 0; need != got[j] {
					t.Fatalf("seed %d: pattern of S at (%d,%d): stored %v, want %v", seed, i, j, got[j], need)
				}
			}
		}
	}
}

func hasEntry(a *sparse.CSR, i, j int) bool {
	cols, _ := a.Row(i)
	for _, c := range cols {
		if c == j {
			return true
		}
	}
	return false
}

// With dropping on, S keeps exactly the diagonal plus the entries of the
// undropped row above dropTol·(mean row magnitude), bit for bit.
func TestAssembleSchurDropRule(t *testing.T) {
	const dropTol = 0.05
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := randUnsym(rng, 10+rng.Intn(50))
		maxG := 2 + rng.Intn(8)
		full, err := Reduce(a, 0, maxG, 0)
		if err != nil || full == nil {
			t.Fatalf("seed %d: Reduce: %v %v", seed, full, err)
		}
		dropped, err := Reduce(a, 0, maxG, dropTol)
		if err != nil {
			t.Fatalf("seed %d: Reduce: %v", seed, err)
		}
		s0, s := full.S, dropped.S
		for i := 0; i < s0.Rows; i++ {
			cols0, vals0 := s0.Row(i)
			var norm float64
			for _, v := range vals0 {
				norm += math.Abs(v)
			}
			thresh := dropTol * norm / float64(len(vals0))
			var wantCols []int
			var wantVals []float64
			for k, j := range cols0 {
				if j == i || math.Abs(vals0[k]) > thresh {
					wantCols = append(wantCols, j)
					wantVals = append(wantVals, vals0[k])
				}
			}
			cols, vals := s.Row(i)
			if fmt.Sprint(cols, vals) != fmt.Sprint(wantCols, wantVals) {
				t.Fatalf("seed %d row %d: kept %v %v, want %v %v", seed, i, cols, vals, wantCols, wantVals)
			}
			if hasEntry(s0, i, i) && !hasEntry(s, i, i) {
				t.Fatalf("seed %d row %d: diagonal dropped", seed, i)
			}
		}
	}
}

// indSetPermScan is the original O(groups·n) IndSetPerm, kept as the
// reference for the counting-sort version.
func indSetPermScan(group []int, ngroups int) (perm sparse.Perm, nB int, blocks [][2]int) {
	n := len(group)
	perm = make(sparse.Perm, 0, n)
	blocks = make([][2]int, ngroups)
	for g := 0; g < ngroups; g++ {
		start := len(perm)
		for v := 0; v < n; v++ {
			if group[v] == g {
				perm = append(perm, v)
			}
		}
		blocks[g] = [2]int{start, len(perm)}
	}
	nB = len(perm)
	for v := 0; v < n; v++ {
		if group[v] < 0 {
			perm = append(perm, v)
		}
	}
	return perm, nB, blocks
}

func TestIndSetPermMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80)
		ng := rng.Intn(12)
		group := make([]int, n)
		for v := range group {
			// Separator (−1), unassigned (−2) or one of the groups; some
			// groups may stay empty.
			group[v] = rng.Intn(ng+2) - 2
		}
		perm, nB, blocks := IndSetPerm(group, ng)
		wPerm, wNB, wBlocks := indSetPermScan(group, ng)
		if fmt.Sprint(perm, nB, blocks) != fmt.Sprint(wPerm, wNB, wBlocks) {
			t.Fatalf("seed %d: IndSetPerm = %v %d %v, scan = %v %d %v",
				seed, perm, nB, blocks, wPerm, wNB, wBlocks)
		}
	}
}

// Forcing the trailing unknowns into the separator must group the rest
// exactly as a pass over the leading block alone.
func TestGroupIndependentSetForcedSeparator(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		a := randUnsym(rng, n)
		nSep := rng.Intn(n + 1)
		lead := make([]int, n-nSep)
		for i := range lead {
			lead[i] = i
		}
		wantG, wantNG := GroupIndependentSet(sparse.Extract(a, lead, lead), 0, 6)
		group, ng := GroupIndependentSet(a, nSep, 6)
		if ng != wantNG || fmt.Sprint(group[:n-nSep]) != fmt.Sprint(wantG) {
			t.Fatalf("seed %d: forced-separator grouping differs from the leading-block pass", seed)
		}
		for v := n - nSep; v < n; v++ {
			if group[v] != -1 {
				t.Fatalf("seed %d: forced separator %d got group %d", seed, v, group[v])
			}
		}
	}
}

// measureSteadyAllocs pins the pool to one worker, warms up once (the
// triangular solves cache their level schedules) and measures.
func measureSteadyAllocs(t *testing.T, f func()) float64 {
	t.Helper()
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	f()
	return testing.AllocsPerRun(10, f)
}

// alloctest: (*arms.Solver).Apply
func TestSolverApplyZeroAlloc(t *testing.T) {
	a, b := poissonMatrix(t, 17)
	s, err := New(a, Options{Levels: 3, MaxGroup: 8, DropTol: 1e-4, ILUT: ilu.DefaultILUT()})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.levels) < 2 {
		t.Fatalf("want a multilevel hierarchy, got %d levels", len(s.levels))
	}
	z := make([]float64, a.Rows)
	if got := measureSteadyAllocs(t, func() { s.Apply(z, b) }); got != 0 {
		t.Fatalf("Solver.Apply allocates %v objects per steady-state call, want 0", got)
	}
}

// alloctest: (*arms.Reduction).SolveB
func TestReductionSolveBZeroAlloc(t *testing.T) {
	a, b := poissonMatrix(t, 17)
	red, err := Reduce(a, 0, 12, 1e-4)
	if err != nil || red == nil {
		t.Fatalf("Reduce: %v %v", red, err)
	}
	out := make([]float64, red.NB)
	if got := measureSteadyAllocs(t, func() { red.SolveB(out, b[:red.NB]) }); got != 0 {
		t.Fatalf("Reduction.SolveB allocates %v objects per call, want 0", got)
	}
}
