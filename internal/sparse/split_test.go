package sparse

import (
	"fmt"
	"testing"
)

// rangeIdx returns the index list lo, lo+1, …, hi−1.
func rangeIdx(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// checkSplitMatchesExtract compares the four SplitAt blocks with Extract
// over the same contiguous ranges.
func checkSplitMatchesExtract(t *testing.T, a *CSR, k int) {
	t.Helper()
	head, rowTail, colTail := rangeIdx(0, k), rangeIdx(k, a.Rows), rangeIdx(k, a.Cols)
	b, f, e, c := SplitAt(a, k)
	want := []*CSR{
		Extract(a, head, head), Extract(a, head, colTail),
		Extract(a, rowTail, head), Extract(a, rowTail, colTail),
	}
	for q, got := range []*CSR{b, f, e, c} {
		if !got.Equal(want[q]) {
			t.Fatalf("k=%d: block %q differs from Extract: got %v, want %v",
				k, "BFEC"[q:q+1], got, want[q])
		}
	}
}

// rawCSR builds a CSR from (row, col, val) triplets in stream order
// without normalizing: rows may be unsorted and carry duplicates.
func rawCSR(rows, cols int, trip [][3]int) *CSR {
	a := NewCSR(rows, cols, len(trip))
	for i := 0; i < rows; i++ {
		for _, tr := range trip {
			if tr[0] == i {
				a.ColIdx = append(a.ColIdx, tr[1])
				a.Val = append(a.Val, float64(tr[2]))
			}
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a
}

func TestSplitAtMatchesExtract(t *testing.T) {
	tri := rawCSR(4, 4, [][3]int{
		{0, 0, 2}, {0, 1, -1}, {1, 0, -1}, {1, 1, 2}, {1, 2, -1},
		{2, 1, -1}, {2, 2, 2}, {2, 3, -1}, {3, 2, -1}, {3, 3, 2},
	})
	unsorted := rawCSR(3, 5, [][3]int{
		{0, 4, 1}, {0, 0, 2}, {0, 2, 3}, {1, 3, 4}, {1, 3, 5}, {1, 1, 6}, {2, 0, 7},
	})
	cases := []struct {
		name string
		a    *CSR
		k    int
	}{
		{"tridiag/k=0", tri, 0},
		{"tridiag/k=2", tri, 2},
		{"tridiag/k=4", tri, 4},
		{"unsorted-dups/k=1", unsorted, 1},
		{"unsorted-dups/k=3", unsorted, 3},
		{"empty", NewCSR(0, 0, 0), 0},
		{"empty-rows", NewCSR(3, 3, 0), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkSplitMatchesExtract(t, tc.a, tc.k) })
	}
}

func TestSplitAtRejectsOutOfRange(t *testing.T) {
	for _, k := range []int{-1, 4} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("SplitAt(%d) of a 3×5 matrix did not panic", k)
				}
			}()
			SplitAt(NewCSR(3, 5, 0), k)
		})
	}
}

// FuzzSplitAt checks the one-pass block split against Extract on raw
// (unsorted, duplicate-carrying) matrices at every split index.
func FuzzSplitAt(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 0, 1, 0, 2, 2, 2, 1, 255, 1, 0, 128, 2, 2, 7})
	f.Add([]byte{4, 6, 0, 5, 7, 0, 0, 7, 3, 5, 249, 3, 0, 1, 3, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, trip := decodeTriplets(data)
		a := rawCSR(rows, cols, trip)
		for k := 0; k <= min(rows, cols); k++ {
			checkSplitMatchesExtract(t, a, k)
		}
	})
}
