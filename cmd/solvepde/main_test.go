package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMathLog10Guard(t *testing.T) {
	if mathLog10(0) != -18 || mathLog10(-1) != -18 {
		t.Fatal("non-positive inputs must clamp")
	}
	if got := mathLog10(100); math.Abs(got-2) > 1e-12 {
		t.Fatalf("log10(100) = %v", got)
	}
}

// Regression: an unknown -precond name used to run unpreconditioned and
// exit 0. The test re-executes its own binary as solvepde.
func TestUnknownPrecondExitsNonZero(t *testing.T) {
	if os.Getenv("SOLVEPDE_RUN_MAIN") == "1" {
		os.Args = []string{"solvepde", "-case", "tc1-poisson2d", "-size", "5", "-p", "2", "-precond", "bogus"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownPrecondExitsNonZero$")
	cmd.Env = append(os.Environ(), "SOLVEPDE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("solvepde -precond bogus: err = %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown preconditioner "bogus"`) {
		t.Fatalf("output does not name the bad preconditioner:\n%s", out)
	}
}
