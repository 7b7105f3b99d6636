package precond

import (
	"math"
	"testing"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/par"
	"parapre/internal/sparse"
)

// TestSchur2ApplyZeroAllocSteadyState pins the dynamic twin of the static
// //lint:allocfree proof on the Schur 2 apply: once a warm-up apply has
// sized the inner GMRES workspace and the triangular-solve schedules,
// applying the preconditioner allocates nothing.
//
// alloctest: (*precond.Schur2).Apply
func TestSchur2ApplyZeroAllocSteadyState(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	systems, _, _ := buildPoisson(t, 17, 1, 1)
	s := systems[0]
	var got float64
	dist.Run(1, testMachine(), func(c *dist.Comm) {
		pc, err := NewSchur2(s, DefaultSchur2())
		if err != nil {
			t.Errorf("NewSchur2: %v", err)
			return
		}
		z := make([]float64, s.NLoc())
		pc.Apply(c, z, s.B)
		got = testing.AllocsPerRun(10, func() { pc.Apply(c, z, s.B) })
	})
	if got != 0 {
		t.Fatalf("Schur2.Apply allocates %v objects per steady-state call, want 0", got)
	}
}

// The expanded Schur matrices and the solve's iterates must be
// bit-identical whether the shared-memory pool has one worker or four.
func TestSchur2BitIdenticalAcrossWorkers(t *testing.T) {
	const m, p = 65, 4
	systems, _, _ := buildPoisson(t, m, p, 1)
	run := func(workers int) ([]*sparse.CSR, int, []float64) {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		ss := make([]*sparse.CSR, p)
		it, x := solveWith(t, systems, p, func(s *dsys.System) Preconditioner {
			pc, err := NewSchur2(s, DefaultSchur2())
			if err != nil {
				t.Errorf("%v", err)
				return nil
			}
			ss[s.Rank] = pc.red.S
			return pc
		})
		return ss, it, x
	}
	s1, it1, x1 := run(1)
	s4, it4, x4 := run(4)
	for r := range s1 {
		if !s1[r].Equal(s4[r]) {
			t.Errorf("rank %d: expanded Schur matrix differs between 1 and 4 workers", r)
		}
	}
	if it1 != it4 {
		t.Fatalf("iterations differ: %d (1 worker) vs %d (4 workers)", it1, it4)
	}
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x4[i]) {
			t.Fatalf("x[%d] differs: %v (1 worker) vs %v (4 workers)", i, x1[i], x4[i])
		}
	}
}

// BenchmarkSchur2Setup times the Schur 2 construction of one rank of
// Test Case 1 at size 129 on four ranks: the independent-set reduction,
// the expanded Schur assembly and its ILU(0).
func BenchmarkSchur2Setup(b *testing.B) {
	systems, _, _ := buildPoisson(b, 129, 4, 1)
	s := systems[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSchur2(s, DefaultSchur2()); err != nil {
			b.Fatal(err)
		}
	}
}
