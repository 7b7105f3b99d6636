package ilu

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"parapre/internal/sparse"
)

// zeroRowMatrix builds a 4×4 matrix whose row 2 is structurally empty.
func zeroRowMatrix() *sparse.CSR {
	coo := sparse.NewCOO(4, 4, 8)
	coo.Add(0, 0, 2)
	coo.Add(0, 1, -1)
	coo.Add(1, 1, 3)
	coo.Add(3, 3, 1)
	return coo.ToCSR()
}

// Regression: a structurally zero row used to be silently floored to the
// absolute pivotRel (1e-8), so the backward solve multiplied the
// right-hand side by 1e8 — a garbage answer with PivotFixes as the only
// hint. Every factorization must now refuse with a typed error.
func TestZeroRowReturnsTypedError(t *testing.T) {
	a := zeroRowMatrix()
	cases := []struct {
		name string
		run  func() error
	}{
		{"ILU0", func() error { _, err := ILU0(a); return err }},
		{"ILUT", func() error { _, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0}); return err }},
		{"ILUTP", func() error {
			_, err := ILUTP(a, ILUTPOptions{ILUTOptions: ILUTOptions{Tau: 0}, PermTol: 1})
			return err
		}},
		{"IC0", func() error { _, err := IC0(a); return err }},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: zero row accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrZeroPivot) {
			t.Errorf("%s: error %v does not wrap ErrZeroPivot", tc.name, err)
		}
		var zp *ZeroPivotError
		if !errors.As(err, &zp) {
			t.Errorf("%s: error %v is not a *ZeroPivotError", tc.name, err)
			continue
		}
		if zp.Row != 2 {
			t.Errorf("%s: reported row %d, want 2", tc.name, zp.Row)
		}
		if zp.Method != tc.name {
			t.Errorf("%s: reported method %q", tc.name, zp.Method)
		}
	}
}

// An explicit all-zero row (stored entries, all exactly zero) is just as
// information-free as a structurally empty one.
func TestExplicitZeroRowReturnsTypedError(t *testing.T) {
	coo := sparse.NewCOO(3, 3, 5)
	coo.Add(0, 0, 2)
	coo.Add(1, 0, 0)
	coo.Add(1, 1, 0)
	coo.Add(2, 2, 1)
	a := coo.ToCSR()
	for _, run := range []func() error{
		func() error { _, err := ILU0(a); return err },
		func() error { _, err := ILUT(a, ILUTOptions{Tau: 0}); return err },
	} {
		if err := run(); !errors.Is(err, ErrZeroPivot) {
			t.Errorf("explicit zero row: got %v, want ErrZeroPivot", err)
		}
	}
}

// Regression: a NaN or ±Inf entry used to pass through every
// factorization. ILUT kept a NaN diagonal and dropped the row's
// off-diagonals; with +Inf it dropped the row's coupling and "solved" a
// 3×3 system to x = [0.25, 0, 0.25]. Each factorization must now name the
// row in a typed *InputError.
func TestNonFiniteEntryReturnsTypedError(t *testing.T) {
	factors := []struct {
		name   string
		factor func(*sparse.CSR) error
	}{
		{"ILU0", func(a *sparse.CSR) error { _, err := ILU0(a); return err }},
		{"ILUT", func(a *sparse.CSR) error { _, err := ILUT(a, DefaultILUT()); return err }},
		{"ILUTP", func(a *sparse.CSR) error {
			_, err := ILUTP(a, ILUTPOptions{ILUTOptions: DefaultILUT(), PermTol: 1})
			return err
		}},
		{"IC0", func(a *sparse.CSR) error { _, err := IC0(a); return err }},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, row := range []int{0, 1, 2} {
			a := tridiag(3)
			// Poison the diagonal of row `row`.
			cols, vals := a.Row(row)
			for k, j := range cols {
				if j == row {
					vals[k] = bad
				}
			}
			for _, f := range factors {
				err := f.factor(a)
				var ie *InputError
				if !errors.As(err, &ie) || !errors.Is(err, ErrBadInput) {
					t.Fatalf("%s, %v at row %d: err = %v, want *InputError", f.name, bad, row, err)
				}
				if ie.Op != f.name || !strings.Contains(ie.Detail, fmt.Sprintf("row %d ", row)) {
					t.Fatalf("%s, %v at row %d: error %q does not name the op and row", f.name, bad, row, err)
				}
			}
		}
	}
}
