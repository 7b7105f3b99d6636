package main

import (
	"fmt"
	"math"
	"sync"

	"parapre/internal/sparse"
)

// tol is the solver tolerance of every workload; an answer passes when
// the benchmark's own ‖b−Ax‖/‖b‖ is at most residualFactor·tol.
const (
	tol            = 1e-6
	residualFactor = 10
)

// fingerprint is what must repeat bit for bit on every solve of the same
// input: the iteration count and the modeled setup and solve seconds.
type fingerprint struct {
	Iterations int
	ModelSetup float64
	ModelSolve float64
}

// checker is the correctness gate every op passes through. A failed
// solve, a typed error, a refused request, a residual miss or a
// fingerprint that differs from an earlier solve of the same input all
// count as failed; nothing is retried or dropped.
type checker struct {
	perturb bool

	mu        sync.Mutex
	attempted int
	failed    int
	maxRes    float64
	failures  []string
	seen      map[string]fingerprint
}

func newChecker(perturb bool) *checker {
	return &checker{perturb: perturb, seen: map[string]fingerprint{}}
}

// fail counts an op that produced no checkable answer.
func (c *checker) fail(key string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failed++
	c.note(fmt.Sprintf("%s: %v", key, err))
}

// note keeps the first few failure reasons for the details line.
func (c *checker) note(msg string) {
	if len(c.failures) < 5 {
		c.failures = append(c.failures, msg)
	}
}

// check gates one answered op: x must solve A·x = b to the residual
// bound, the solver must report convergence, and fp must equal every
// earlier fingerprint of input key. It reports whether the op passed.
func (c *checker) check(key string, a *sparse.CSR, b, x []float64, converged bool, fp fingerprint) bool {
	if c.perturb {
		x = append([]float64(nil), x...)
		for i := range x {
			x[i] *= 1.01
		}
	}
	res := relResidual(a, b, x)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if res > c.maxRes || math.IsNaN(res) {
		c.maxRes = res
	}
	ok := true
	if !converged {
		ok = false
		c.note(key + ": solver reports no convergence")
	}
	if !(res <= residualFactor*tol) {
		ok = false
		c.note(fmt.Sprintf("%s: ‖b−Ax‖/‖b‖ = %.3g > %g", key, res, residualFactor*tol))
	}
	if prev, seen := c.seen[key]; seen && prev != fp {
		ok = false
		c.note(fmt.Sprintf("%s: not deterministic: %+v then %+v", key, prev, fp))
	} else if !seen {
		c.seen[key] = fp
	}
	if !ok {
		c.failed++
	}
	return ok
}

// relResidual computes ‖b−Ax‖₂/‖b‖₂ with its own loop over the CSR
// arrays, so a fault in the kernels under test cannot hide itself.
func relResidual(a *sparse.CSR, b, x []float64) float64 {
	if len(x) != a.Cols || len(b) != a.Rows {
		return math.Inf(1)
	}
	var rr, bb float64
	for i := 0; i < a.Rows; i++ {
		s := b[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s -= a.Val[k] * x[a.ColIdx[k]]
		}
		rr += s * s
		bb += b[i] * b[i]
	}
	if bb == 0 {
		return math.Sqrt(rr)
	}
	return math.Sqrt(rr / bb)
}
