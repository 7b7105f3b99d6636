package core_test

import (
	"errors"
	"testing"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/precond"
)

// Regression: a name outside the registry used to fall through
// buildRankPrecond to the identity and solve unpreconditioned. Every
// entry point now rejects it before partitioning.
func TestUnknownKindRejected(t *testing.T) {
	c, err := cases.ByName("tc1-poisson2d")
	if err != nil {
		t.Fatal(err)
	}
	prob := c.Build(5)
	for _, kind := range []precond.Kind{"bogus", "", "block 2", "schur 2", "mslr", "NONE"} {
		cfg := core.DefaultConfig(2, kind)
		entries := map[string]func() error{
			"Solve":      func() error { _, err := core.Solve(prob, cfg); return err },
			"NewSession": func() error { _, err := core.NewSession(prob, cfg); return err },
			"SolveRank":  func() error { _, _, err := core.SolveRank(prob, cfg, 0, nil, nil); return err },
		}
		for name, run := range entries {
			err := run()
			var uk *precond.UnknownKindError
			if !errors.As(err, &uk) || uk.Kind != kind || !errors.Is(err, precond.ErrUnknownKind) {
				t.Fatalf("%s(%q): err = %v, want *precond.UnknownKindError", name, kind, err)
			}
		}
	}
}
