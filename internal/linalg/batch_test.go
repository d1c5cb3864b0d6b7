package linalg

import (
	"errors"
	"math/rand"
	"testing"
)

// loadBatch copies a Tridiag's diagonals into a float64 batch.
func loadBatch(tri *Tridiag) *TridiagBatch[float64] {
	bat := NewTridiagBatch[float64](tri.N())
	copy(bat.A, tri.A)
	copy(bat.B, tri.B)
	copy(bat.C, tri.C)
	return bat
}

// Property: one batched factorisation + per-system substitution is
// bit-identical to N independent Tridiag.Solve calls.
func TestTridiagBatchBitEqualsScalarSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		m := 1 + rng.Intn(17)
		tri := randomDominantTridiag(rng, n)
		bat := loadBatch(tri)
		if err := bat.Factorize(); err != nil {
			t.Fatalf("Factorize: %v", err)
		}

		// Interleaved field: x[i*m+j] = component i of system j.
		field := make([]float64, n*m)
		for i := range field {
			field[i] = rng.NormFloat64()
		}

		// Reference: scalar solves, one per column.
		want := make([]float64, n*m)
		rhs, sol := NewVector(n), NewVector(n)
		for j := 0; j < m; j++ {
			for i := 0; i < n; i++ {
				rhs[i] = field[i*m+j]
			}
			if err := tri.Solve(sol, rhs); err != nil {
				t.Fatalf("scalar Solve: %v", err)
			}
			for i := 0; i < n; i++ {
				want[i*m+j] = sol[i]
			}
		}

		// Batched in-place interleaved solve.
		got := append([]float64(nil), field...)
		if err := bat.SolveInterleaved(got, m); err != nil {
			t.Fatalf("SolveInterleaved: %v", err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: bit mismatch at %d: %v vs %v (diff %g)",
					trial, i, got[i], want[i], got[i]-want[i])
			}
		}

	}
}

// Tridiag.Factorize + repeated SolveFactored is bit-identical to repeated
// Solve, and mutating helpers invalidate the factorisation.
func TestTridiagSolveFactoredReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tri := randomDominantTridiag(rng, 24)
	if err := tri.Factorize(); err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	ref := randomDominantTridiag(rng, 24)
	copy(ref.A, tri.A)
	copy(ref.B, tri.B)
	copy(ref.C, tri.C)
	for k := 0; k < 5; k++ {
		rhs := NewVector(24)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		fast, slow := NewVector(24), NewVector(24)
		if err := tri.SolveFactored(fast, rhs); err != nil {
			t.Fatalf("SolveFactored: %v", err)
		}
		if err := ref.Solve(slow, rhs); err != nil {
			t.Fatalf("Solve: %v", err)
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("solve %d: SolveFactored differs at %d: %v vs %v", k, i, fast[i], slow[i])
			}
		}
	}

	tri.AddDiagonal(1)
	if err := tri.SolveFactored(NewVector(24), NewVector(24)); err == nil {
		t.Error("SolveFactored after AddDiagonal should require refactorisation")
	}
	if err := tri.Factorize(); err != nil {
		t.Fatalf("refactorise: %v", err)
	}
	if err := tri.SolveFactored(NewVector(24), NewVector(24)); err != nil {
		t.Errorf("SolveFactored after refactorise: %v", err)
	}
	tri.Reset()
	if err := tri.SolveFactored(NewVector(24), NewVector(24)); err == nil {
		t.Error("SolveFactored after Reset should require refactorisation")
	}
}

func TestTridiagBatchErrors(t *testing.T) {
	bat := NewTridiagBatch[float64](3)
	if err := bat.Factorize(); !errors.Is(err, ErrSingular) {
		t.Errorf("zero system should be singular, got %v", err)
	}
	if err := bat.SolveInterleaved(make([]float64, 6), 2); err == nil {
		t.Error("SolveInterleaved before successful Factorize should error")
	}
	bat.B[0], bat.B[1], bat.B[2] = 2, 2, 2
	if err := bat.Factorize(); err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if err := bat.SolveInterleaved(make([]float64, 7), 2); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("wrong field size should mismatch, got %v", err)
	}
	if err := bat.SolveInterleaved(nil, 0); err != nil {
		t.Errorf("zero-width batch should be a no-op, got %v", err)
	}
}

// Batched interleaved substitution vs per-line factorise-and-solve — the
// speedup the h-sweeps of the PDE schemes get from coefficient sharing.
func BenchmarkTridiagBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	const n, m = 61, 128
	tri := randomDominantTridiag(rng, n)
	bat := loadBatch(tri)
	field := make([]float64, n*m)
	for i := range field {
		field[i] = rng.NormFloat64()
	}
	work := make([]float64, n*m)

	b.Run("scalar", func(b *testing.B) {
		rhs, sol := NewVector(n), NewVector(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < m; j++ {
				for i := 0; i < n; i++ {
					rhs[i] = field[i*m+j]
				}
				if err := tri.Solve(sol, rhs); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					work[i*m+j] = sol[i]
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := bat.Factorize(); err != nil {
				b.Fatal(err)
			}
			copy(work, field)
			if err := bat.SolveInterleaved(work, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
