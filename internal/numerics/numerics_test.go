package numerics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func mustAxis(t *testing.T, min, max float64, n int) grid.Axis {
	t.Helper()
	a, err := grid.NewAxis(min, max, n)
	if err != nil {
		t.Fatalf("NewAxis: %v", err)
	}
	return a
}

func mustGrid(t *testing.T, hn, qn int) grid.Grid2D {
	t.Helper()
	g, err := grid.NewGrid2D(
		grid.Axis{Min: 0, Max: 1, N: hn},
		grid.Axis{Min: 0, Max: 2, N: qn},
	)
	if err != nil {
		t.Fatalf("NewGrid2D: %v", err)
	}
	return g
}

func TestInterpBilinearExactOnBilinear(t *testing.T) {
	g := mustGrid(t, 5, 7)
	f := g.NewField()
	fn := func(h, q float64) float64 { return 2 + 3*h - q + 0.5*h*q }
	for i := 0; i < g.H.N; i++ {
		for j := 0; j < g.Q.N; j++ {
			f[g.Idx(i, j)] = fn(g.H.At(i), g.Q.At(j))
		}
	}
	for _, pt := range [][2]float64{{0, 0}, {0.5, 1}, {0.21, 1.9}, {1, 2}} {
		got, err := InterpBilinear(g, f, pt[0], pt[1])
		if err != nil {
			t.Fatalf("InterpBilinear: %v", err)
		}
		if math.Abs(got-fn(pt[0], pt[1])) > 1e-12 {
			t.Errorf("InterpBilinear(%v) = %g, want %g", pt, got, fn(pt[0], pt[1]))
		}
	}
	if _, err := InterpBilinear(g, f[:3], 0, 0); err == nil {
		t.Error("mismatched field should error")
	}
}

func TestGradientQExactOnLinear(t *testing.T) {
	g := mustGrid(t, 4, 9)
	f := g.NewField()
	for i := 0; i < g.H.N; i++ {
		for j := 0; j < g.Q.N; j++ {
			f[g.Idx(i, j)] = 5*g.Q.At(j) + 2*g.H.At(i)
		}
	}
	dst := g.NewField()
	if err := GradientQ(g, dst, f); err != nil {
		t.Fatalf("GradientQ: %v", err)
	}
	for k, v := range dst {
		if math.Abs(v-5) > 1e-10 {
			t.Fatalf("GradientQ[%d] = %g, want 5", k, v)
		}
	}
}

func TestTrapezoidExactOnLinear(t *testing.T) {
	ax := mustAxis(t, 0, 2, 21)
	vals := make([]float64, 21)
	for i := range vals {
		vals[i] = 4*ax.At(i) + 1 // ∫₀² (4x+1) dx = 10
	}
	got, err := Trapezoid(ax, vals)
	if err != nil {
		t.Fatalf("Trapezoid: %v", err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Errorf("Trapezoid = %g, want 10", got)
	}
}

func TestIntegral2DExactOnConstant(t *testing.T) {
	g := mustGrid(t, 6, 8) // area 1×2 = 2
	f := g.NewField()
	for k := range f {
		f[k] = 3
	}
	got, err := Integral2D(g, f)
	if err != nil {
		t.Fatalf("Integral2D: %v", err)
	}
	if math.Abs(got-6) > 1e-12 {
		t.Errorf("Integral2D = %g, want 6", got)
	}
}

func TestIntegral2DExactOnBilinear(t *testing.T) {
	g := mustGrid(t, 5, 5)
	f := g.NewField()
	// ∫₀¹∫₀² (h + q) dq dh = ∫₀¹ (2h + 2) dh = 3
	for i := 0; i < g.H.N; i++ {
		for j := 0; j < g.Q.N; j++ {
			f[g.Idx(i, j)] = g.H.At(i) + g.Q.At(j)
		}
	}
	got, err := Integral2D(g, f)
	if err != nil {
		t.Fatalf("Integral2D: %v", err)
	}
	if math.Abs(got-3) > 1e-12 {
		t.Errorf("Integral2D = %g, want 3", got)
	}
}

func TestWeightedIntegralMatchesPlain(t *testing.T) {
	g := mustGrid(t, 7, 9)
	f := g.NewField()
	rng := rand.New(rand.NewSource(5))
	for k := range f {
		f[k] = rng.Float64()
	}
	plain, err := Integral2D(g, f)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := WeightedIntegral2D(g, f, func(_, _ int, _, _ float64) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain-weighted) > 1e-12 {
		t.Errorf("weighted(1) = %g differs from plain %g", weighted, plain)
	}
}

func TestMarginalQIntegratesToTotal(t *testing.T) {
	g := mustGrid(t, 7, 9)
	f := g.NewField()
	rng := rand.New(rand.NewSource(6))
	for k := range f {
		f[k] = rng.Float64()
	}
	marg := make([]float64, g.Q.N)
	if err := MarginalQ(g, marg, f); err != nil {
		t.Fatalf("MarginalQ: %v", err)
	}
	mq, err := Trapezoid(g.Q, marg)
	if err != nil {
		t.Fatal(err)
	}
	total, err := Integral2D(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mq-total) > 1e-10 {
		t.Errorf("∫marginal = %g, ∫∫field = %g", mq, total)
	}
}

func TestSmoothStepProperties(t *testing.T) {
	if got := SmoothStep(1, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("f(0) = %g, want 0.5", got)
	}
	if got := SmoothStep(1, 1000); got != 1 {
		t.Errorf("f(+∞) = %g, want 1", got)
	}
	if got := SmoothStep(1, -1000); got != 0 {
		t.Errorf("f(−∞) = %g, want 0", got)
	}
}

// Property: f(x) + f(−x) = 1 — this is what makes P1+P2+P3 = 1 in the model.
func TestSmoothStepComplement(t *testing.T) {
	f := func(x float64, lRaw uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		l := 0.01 + float64(lRaw%100)/10
		return math.Abs(SmoothStep(l, x)+SmoothStep(l, -x)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: f is non-decreasing.
func TestSmoothStepMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return SmoothStep(0.3, lo) <= SmoothStep(0.3, hi)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalPDFIntegratesToOne(t *testing.T) {
	ax := mustAxis(t, -8, 8, 801)
	vals := make([]float64, ax.N)
	for i := range vals {
		vals[i] = NormalPDF(0, 1, ax.At(i))
	}
	got, err := Trapezoid(ax, vals)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-6 {
		t.Errorf("∫pdf = %g, want 1", got)
	}
	if NormalPDF(0, -1, 0) != 0 {
		t.Error("non-positive sd should give 0 density")
	}
}

func TestZipfWeights(t *testing.T) {
	w, err := ZipfWeights(5, 1)
	if err != nil {
		t.Fatalf("ZipfWeights: %v", err)
	}
	var sum float64
	for i, x := range w {
		sum += x
		if i > 0 && x > w[i-1] {
			t.Errorf("Zipf weights must be non-increasing: w[%d]=%g > w[%d]=%g", i, x, i-1, w[i-1])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("Σw = %g, want 1", sum)
	}
	if _, err := ZipfWeights(0, 1); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := ZipfWeights(3, 0); err == nil {
		t.Error("skew 0 should error")
	}
}

func TestClampHelpers(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
	if Clamp01(2) != 1 || Clamp01(-0.5) != 0 || Clamp01(0.25) != 0.25 {
		t.Error("Clamp01 misbehaves")
	}
	if Lerp(2, 4, 0.5) != 3 {
		t.Error("Lerp misbehaves")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Sum != 15 {
		t.Errorf("Summarize basics wrong: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Errorf("Std = %g, want √2", s.Std)
	}
	if s.Median != 3 {
		t.Errorf("Median = %g, want 3", s.Median)
	}
	if s := Summarize(nil); s.N != 0 {
		t.Error("empty summary should have N=0")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Quantile(sorted, 0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %g, want 5", got)
	}
	if got := Quantile(sorted, 0); got != 0 {
		t.Errorf("Quantile(0) = %g, want 0", got)
	}
	if got := Quantile(sorted, 1); got != 10 {
		t.Errorf("Quantile(1) = %g, want 10", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("singleton quantile = %g, want 7", got)
	}
}

func TestMeanVariance(t *testing.T) {
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %g, want 3", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for _, x := range []float64{0, 1, 5, 9.9, 10, -1, 11} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
	below, above := h.OutOfRange()
	if below != 1 || above != 1 {
		t.Errorf("OutOfRange = (%d, %d), want (1, 1)", below, above)
	}
	if h.Counts[0] != 2 { // 0 and 1
		t.Errorf("bin 0 count = %d, want 2", h.Counts[0])
	}
	if h.Counts[4] != 2 { // 9.9 and 10 (upper edge folds into last bin)
		t.Errorf("bin 4 count = %d, want 2", h.Counts[4])
	}
	if h.BinWidth() != 2 {
		t.Errorf("BinWidth = %g, want 2", h.BinWidth())
	}
	if h.BinCenter(0) != 1 {
		t.Errorf("BinCenter(0) = %g, want 1", h.BinCenter(0))
	}
	dens := h.Density()
	var integral float64
	for _, d := range dens {
		integral += d * h.BinWidth()
	}
	if integral >= 1+1e-12 {
		t.Errorf("density integrates to %g > 1", integral)
	}
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("0 bins should error")
	}
	if _, err := NewHistogram(3, 3, 4); err == nil {
		t.Error("empty range should error")
	}
}

func TestL1Distance(t *testing.T) {
	d, err := L1Distance([]float64{1, 2}, []float64{0, 4}, 0.5)
	if err != nil {
		t.Fatalf("L1Distance: %v", err)
	}
	if math.Abs(d-1.5) > 1e-12 {
		t.Errorf("L1Distance = %g, want 1.5", d)
	}
	if _, err := L1Distance([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestInterpMultilinearExactOnTrilinear(t *testing.T) {
	// A trilinear function is reproduced exactly by multilinear interpolation,
	// including on non-uniform axes and at clamped out-of-range points.
	f := func(a, b, c float64) float64 { return 2 + 3*a - b + 0.5*c + a*b - 2*b*c + a*b*c }
	axes := [][]float64{{0, 1, 3}, {-1, 0.5, 2, 4}, {10, 20}}
	vals := make([]float64, 3*4*2)
	for i, a := range axes[0] {
		for j, b := range axes[1] {
			for k, c := range axes[2] {
				vals[(i*4+j)*2+k] = f(a, b, c)
			}
		}
	}
	cases := []struct {
		x    []float64
		want float64
	}{
		{[]float64{0.7, 1.1, 14}, f(0.7, 1.1, 14)},
		{[]float64{3, 4, 20}, f(3, 4, 20)},      // corner node
		{[]float64{-5, 0.5, 12}, f(0, 0.5, 12)}, // clamped below
		{[]float64{1, 9, 25}, f(1, 4, 20)},      // clamped above
	}
	for _, c := range cases {
		got, err := InterpMultilinear(axes, vals, c.x)
		if err != nil {
			t.Fatalf("InterpMultilinear(%v): %v", c.x, err)
		}
		if math.Abs(got-c.want) > 1e-9*math.Abs(c.want) {
			t.Errorf("InterpMultilinear(%v) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestInterpMultilinearDegenerateAxis(t *testing.T) {
	// A single-node axis freezes its dimension: the interpolant reduces to
	// the lower-dimensional one and the frozen coordinate is ignored.
	axes := [][]float64{{0, 2}, {5}, {1, 3}}
	vals := []float64{0, 1, 2, 3} // v(i,0,k) = 2i + k over unit offsets
	got, err := InterpMultilinear(axes, vals, []float64{1, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("degenerate-axis interpolation = %g, want %g", got, want)
	}
	// The frozen coordinate may differ from the node value — the table layer
	// decides whether that is acceptable, not the interpolant.
	if got2, err := InterpMultilinear(axes, vals, []float64{1, 99, 2}); err != nil || got2 != got {
		t.Errorf("frozen coordinate changed the interpolant: %g vs %g (err %v)", got2, got, err)
	}
}

func TestInterpMultilinearShapeErrors(t *testing.T) {
	if _, err := InterpMultilinear([][]float64{{0, 1}}, []float64{1}, []float64{0.5}); err == nil {
		t.Error("value/node count mismatch should error")
	}
	if _, err := InterpMultilinear([][]float64{{0, 1}}, []float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("axis/coordinate count mismatch should error")
	}
	if _, err := InterpMultilinear([][]float64{{}}, nil, []float64{0}); err == nil {
		t.Error("empty axis should error")
	}
	if _, _, err := LocateNodes(nil, 1); err == nil {
		t.Error("LocateNodes on empty nodes should error")
	}
}
