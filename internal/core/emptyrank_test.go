package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/precond"
)

// P at or above the number of unknowns leaves ranks with no unknowns at
// all. Every ILU-based preconditioner must set up and apply on such a
// rank: the run converges, or fails with a typed solver error — never a
// rank panic and never a hang (the watchdog turns one into a
// *dist.DeadlockError, which fails the test too).
func TestEmptyRanksILUKinds(t *testing.T) {
	kinds := []precond.Kind{
		precond.KindBlock1, precond.KindBlock2, precond.KindBlock2P, precond.KindBlockIC,
		precond.KindSchur1, precond.KindSchur2, precond.KindBlockARMS,
	}
	for _, size := range []int{2, 3} {
		prob := cases.Poisson2D(size)
		n := prob.A.Rows
		for _, p := range []int{n, n + 1, 4 * n} {
			for _, kind := range kinds {
				t.Run(fmt.Sprintf("size=%d/P=%d/%s", size, p, kind), func(t *testing.T) {
					cfg := core.DefaultConfig(p, kind)
					cfg.Watchdog = 20 * time.Second
					res, err := core.Solve(prob, cfg)
					var panicked *dist.RankPanicError
					var deadlock *dist.DeadlockError
					switch {
					case errors.As(err, &panicked), errors.As(err, &deadlock):
						t.Fatalf("run failed: %v", err)
					case err != nil:
						t.Logf("typed setup error: %v", err)
					case res.Err != nil:
						t.Logf("typed solver error: %v", res.Err)
					case !res.Converged:
						t.Fatalf("not converged after %d iterations", res.Iterations)
					}
				})
			}
		}
	}
}
