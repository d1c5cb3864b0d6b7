package linalg

import "testing"

func TestVectorBasics(t *testing.T) {
	v := NewVector(4)
	if len(v) != 4 {
		t.Fatalf("NewVector(4) has length %d", len(v))
	}
	v.Fill(2)
	for i, x := range v {
		if x != 2 {
			t.Errorf("v[%d] = %g after Fill(2)", i, x)
		}
	}
	w := v.Clone()
	w[0] = 100
	if v[0] != 2 {
		t.Errorf("Clone is not independent: v[0]=%g", v[0])
	}
}
