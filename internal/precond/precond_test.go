package precond

import (
	"errors"
	"math"
	"testing"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/fem"
	"parapre/internal/grid"
	"parapre/internal/ilu"
	"parapre/internal/krylov"
	"parapre/internal/partition"
	"parapre/internal/sparse"
)

func testMachine() *dist.Machine {
	return &dist.Machine{Name: "test", FlopRate: 1e9, Latency: 1e-6, ByteTime: 1e-9, Load: 1}
}

// buildPoisson assembles a Dirichlet Poisson problem and distributes it.
func buildPoisson(t testing.TB, m, p int, seed int64) ([]*dsys.System, *sparse.CSR, []float64) {
	g := grid.UnitSquareTri(m)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1,
		Source:    func(x []float64) float64 { return x[0] * math.Exp(x[1]) },
	})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			c := g.Coord(n)
			bc[n] = c[0] * math.Exp(c[1])
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	ptr, adj := g.NodeGraph()
	part, err := partition.General(&partition.Graph{Ptr: ptr, Adj: adj}, p, seed)
	if err != nil {
		panic(err)
	}
	return dsys.Distribute(a, b, part, p), a, b
}

// solveWith runs the distributed FGMRES with the given preconditioner
// factory and returns (iterations, gathered solution).
func solveWith(t *testing.T, systems []*dsys.System, p int,
	mk func(s *dsys.System) Preconditioner) (int, []float64) {
	t.Helper()
	xl := make([][]float64, p)
	iters := make([]int, p)
	conv := make([]bool, p)
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		pc := mk(s)
		x := make([]float64, s.NLoc())
		var prec krylov.Prec
		if pc != nil {
			prec = func(z, r []float64) { pc.Apply(c, z, r) }
		}
		res := krylov.Distributed(c, s, prec, s.B, x, krylov.Options{
			Restart: 20, MaxIters: 500, Tol: 1e-6, Flexible: true,
		})
		xl[c.Rank()] = x
		iters[c.Rank()] = res.Iterations
		conv[c.Rank()] = res.Converged
	})
	for r := 0; r < p; r++ {
		if !conv[r] {
			t.Fatalf("rank %d did not converge", r)
		}
		if iters[r] != iters[0] {
			t.Fatalf("ranks disagree on iterations: %v", iters)
		}
	}
	return iters[0], dsys.Gather(systems, xl)
}

func refSolution(t *testing.T, a *sparse.CSR, b []float64) []float64 {
	t.Helper()
	x := make([]float64, a.Rows)
	res := krylov.SolveCSR(a, nil, b, x, krylov.Options{Restart: 50, MaxIters: 10000, Tol: 1e-11})
	if !res.Converged {
		t.Fatal("reference solve failed")
	}
	return x
}

func checkClose(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	var d float64
	for i := range got {
		if e := math.Abs(got[i] - want[i]); e > d {
			d = e
		}
	}
	if d > tol {
		t.Fatalf("%s: solution error %v > %v", label, d, tol)
	}
}

func TestAllFourPreconditionersConverge(t *testing.T) {
	const m, p = 17, 4
	systems, a, b := buildPoisson(t, m, p, 1)
	want := refSolution(t, a, b)

	mks := map[string]func(s *dsys.System) Preconditioner{
		"none": func(s *dsys.System) Preconditioner { return nil },
		"Block 1": func(s *dsys.System) Preconditioner {
			pc, err := NewBlock1(s)
			if err != nil {
				t.Errorf("%v", err)
			}
			return pc
		},
		"Block 2": func(s *dsys.System) Preconditioner {
			pc, err := NewBlock2(s, ilu.DefaultILUT())
			if err != nil {
				t.Errorf("%v", err)
			}
			return pc
		},
		"Schur 1": func(s *dsys.System) Preconditioner {
			pc, err := NewSchur1(s, DefaultSchur1())
			if err != nil {
				t.Errorf("%v", err)
			}
			return pc
		},
		"Schur 2": func(s *dsys.System) Preconditioner {
			pc, err := NewSchur2(s, DefaultSchur2())
			if err != nil {
				t.Errorf("%v", err)
			}
			return pc
		},
	}
	iters := map[string]int{}
	for name, mk := range mks {
		it, x := solveWith(t, systems, p, mk)
		checkClose(t, x, want, 2e-4, name)
		iters[name] = it
		t.Logf("%-8s %3d iterations", name, it)
	}
	// Preconditioning must beat no preconditioning, and the Schur
	// variants must need no more iterations than the corresponding block
	// variants (the paper's central qualitative finding).
	for _, name := range []string{"Block 1", "Block 2", "Schur 1", "Schur 2"} {
		if iters[name] >= iters["none"] {
			t.Errorf("%s (%d) not better than unpreconditioned (%d)", name, iters[name], iters["none"])
		}
	}
	if iters["Schur 1"] > iters["Block 2"] {
		t.Errorf("Schur 1 (%d) worse than Block 2 (%d)", iters["Schur 1"], iters["Block 2"])
	}
	if iters["Schur 2"] > iters["Block 1"] {
		t.Errorf("Schur 2 (%d) worse than Block 1 (%d)", iters["Schur 2"], iters["Block 1"])
	}
}

func TestSchurItersStableWithP(t *testing.T) {
	// The paper's headline: Schur 1 iteration counts are "somewhat
	// independent of P" while Block 1 grows. Check the trend on a small
	// grid: going from P=2 to P=8 must not blow up Schur 1.
	const m = 21
	itersAt := func(p int, mk func(s *dsys.System) Preconditioner) int {
		systems, _, _ := buildPoisson(t, m, p, 2)
		it, _ := solveWith(t, systems, p, mk)
		return it
	}
	schur1 := func(s *dsys.System) Preconditioner {
		pc, err := NewSchur1(s, DefaultSchur1())
		if err != nil {
			t.Fatalf("%v", err)
		}
		return pc
	}
	s2 := itersAt(2, schur1)
	s8 := itersAt(8, schur1)
	if s8 > 3*s2+5 {
		t.Errorf("Schur 1 iterations degrade badly with P: %d → %d", s2, s8)
	}
}

func TestBlockApplyIsLocal(t *testing.T) {
	// Block preconditioners must not communicate: stats show zero sends
	// during a pure sequence of Apply calls.
	const p = 4
	systems, _, _ := buildPoisson(t, 13, p, 3)
	stats := dist.Run(p, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		pc, err := NewBlock1(s)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		z := make([]float64, s.NLoc())
		r := make([]float64, s.NLoc())
		for i := range r {
			r[i] = 1
		}
		for k := 0; k < 3; k++ {
			pc.Apply(c, z, r)
		}
	})
	for _, st := range stats {
		if st.MsgsSent != 0 {
			t.Fatalf("rank %d sent %d messages from Block Apply", st.Rank, st.MsgsSent)
		}
	}
}

func TestSchur1ExactComponentsGiveExactPreconditioner(t *testing.T) {
	// With exact factorizations (τ=0, unlimited fill) and enough inner
	// iterations, one application of Schur 1 is essentially a direct
	// solve: the outer FGMRES must converge in very few iterations.
	const p = 3
	systems, a, b := buildPoisson(t, 11, p, 4)
	want := refSolution(t, a, b)
	opts := Schur1Options{
		ILUT:       ilu.ILUTOptions{Tau: 0, LFil: 0},
		SchurIters: 40,
		SchurTol:   1e-12,
		InnerIters: 0, // exact factor solve is already exact
	}
	it, x := solveWith(t, systems, p, func(s *dsys.System) Preconditioner {
		pc, err := NewSchur1(s, opts)
		if err != nil {
			t.Errorf("%v", err)
		}
		return pc
	})
	checkClose(t, x, want, 1e-5, "Schur1-exact")
	if it > 3 {
		t.Fatalf("exact Schur 1 needed %d outer iterations, want ≤ 3", it)
	}
}

func TestSchur2ExpandedSizes(t *testing.T) {
	systems, _, _ := buildPoisson(t, 15, 3, 5)
	for _, s := range systems {
		pc, err := NewSchur2(s, DefaultSchur2())
		if err != nil {
			t.Fatal(err)
		}
		gr, exp := pc.ExpandedSize()
		if gr+exp != s.NLoc() {
			t.Fatalf("rank %d: groups %d + expanded %d != NLoc %d", s.Rank, gr, exp, s.NLoc())
		}
		if exp < s.NIface() {
			t.Fatalf("rank %d: expanded %d smaller than interdomain interface %d", s.Rank, exp, s.NIface())
		}
		if gr == 0 {
			t.Fatalf("rank %d: no grouped unknowns", s.Rank)
		}
	}
}

func TestIdentityPreconditioner(t *testing.T) {
	id := NewIdentity()
	z := make([]float64, 3)
	id.Apply(nil, z, []float64{1, 2, 3})
	if z[1] != 2 {
		t.Fatal("identity broken")
	}
	if id.Name() != "None" {
		t.Fatal("name")
	}
}

// --- additive Schwarz ---

func buildPoissonBoxes(t testing.TB, m, px, py int) ([]*dsys.System, *sparse.CSR, []float64) {
	g := grid.UnitSquareTri(m)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1,
		Source:    func(x []float64) float64 { return x[0] * math.Exp(x[1]) },
	})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			c := g.Coord(n)
			bc[n] = c[0] * math.Exp(c[1])
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	part := BoxPartition(m, px, py)
	p := px * py
	return dsys.Distribute(a, b, part, p), a, b
}

func TestBoxPartitionCoversAll(t *testing.T) {
	m, px, py := 20, 4, 2
	part := BoxPartition(m, px, py)
	sizes := partition.Sizes(part, px*py)
	for q, s := range sizes {
		if s == 0 {
			t.Fatalf("box %d empty", q)
		}
	}
	if im := partition.Imbalance(part, px*py); im > 1.15 {
		t.Fatalf("imbalance %v", im)
	}
}

func TestSchwarzConvergesAndCGCHelps(t *testing.T) {
	const m, px, py = 25, 2, 2
	const p = px * py
	systems, a, b := buildPoissonBoxes(t, m, px, py)
	want := refSolution(t, a, b)

	run := func(cgc bool) (int, []float64) {
		all := make([]*Schwarz, p)
		for r := 0; r < p; r++ {
			sw, err := NewSchwarz(systems[r], a, DefaultSchwarz(m, px, py, cgc))
			if err != nil {
				t.Fatal(err)
			}
			all[r] = sw
		}
		if err := WireHalo(all); err != nil {
			t.Fatal(err)
		}
		return solveWith(t, systems, p, func(s *dsys.System) Preconditioner { return all[s.Rank] })
	}

	itPlain, xPlain := run(false)
	checkClose(t, xPlain, want, 2e-4, "Schwarz")
	itCGC, xCGC := run(true)
	checkClose(t, xCGC, want, 2e-4, "Schwarz+CGC")
	t.Logf("Schwarz: %d iterations without CGC, %d with", itPlain, itCGC)
	if itCGC > itPlain {
		t.Fatalf("CGC made convergence worse: %d vs %d", itCGC, itPlain)
	}
}

func TestSchwarzValidation(t *testing.T) {
	systems, a, _ := buildPoissonBoxes(t, 12, 2, 1)
	if _, err := NewSchwarz(systems[0], a, SchwarzOptions{M: 11, Px: 2, Py: 1, Overlap: 0.05}); err == nil {
		t.Fatal("wrong M accepted")
	}
	if _, err := NewSchwarz(systems[0], a, SchwarzOptions{M: 12, Px: 3, Py: 1, Overlap: 0.05}); err == nil {
		t.Fatal("wrong layout accepted")
	}
}

func TestCheckKind(t *testing.T) {
	for _, k := range []Kind{KindBlock1, KindBlock2, KindBlockARMS, KindBlock2P, KindBlockIC,
		KindSchur1, KindSchur2, KindMSLR, KindNone} {
		if err := CheckKind(k); err != nil {
			t.Errorf("CheckKind(%q) = %v", k, err)
		}
	}
	for _, k := range []Kind{"", "bogus", "block 2", "Schur2", " Schur 1", "none"} {
		var uk *UnknownKindError
		if err := CheckKind(k); !errors.As(err, &uk) || uk.Kind != k {
			t.Errorf("CheckKind(%q) = %v, want *UnknownKindError", k, err)
		}
	}
}
