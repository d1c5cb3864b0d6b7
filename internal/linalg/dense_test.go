package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if got := m.At(0, 1); got != 7 {
		t.Errorf("At(0,1) = %g, want 7", got)
	}
	c := m.Clone()
	c.Set(0, 1, 0)
	if m.At(0, 1) != 7 {
		t.Error("Clone is not independent")
	}
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	dst := NewVector(2)
	if err := m.MulVec(dst, Vector{1, 1}); err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if dst[0] != 3 || dst[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", dst)
	}
	if err := m.MulVec(NewVector(3), Vector{1, 1}); err == nil {
		t.Error("bad dst should error")
	}
}

func TestLUSolveKnown(t *testing.T) {
	// [[2,1],[1,3]] x = [3,5] → x = [4/5, 7/5].
	m := NewDense(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	x, err := SolveDense(m, Vector{3, 5})
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Errorf("x = %v, want [0.8 1.4]", x)
	}
}

func TestLUSingular(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4) // rank 1
	if _, err := m.Factor(); err == nil {
		t.Error("singular matrix should fail to factor")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := NewDense(2, 3).Factor(); err == nil {
		t.Error("non-square factorisation should error")
	}
}

func TestLUDet(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 3)
	m.Set(0, 1, 1)
	m.Set(1, 0, 4)
	m.Set(1, 1, 2)
	f, err := m.Factor()
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if got := f.Det(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Det = %g, want 2", got)
	}
}

func TestLURandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(10)
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
			m.Add(i, i, float64(n)) // keep well conditioned
		}
		x := NewVector(n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := NewVector(n)
		if err := m.MulVec(b, x); err != nil {
			t.Fatalf("MulVec: %v", err)
		}
		got, err := SolveDense(m, b)
		if err != nil {
			t.Fatalf("SolveDense: %v", err)
		}
		d := distInf(got, x)
		if d > 1e-8 {
			t.Fatalf("trial %d: error %g", trial, d)
		}
	}
}
