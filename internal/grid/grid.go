// Package grid defines the uniform 1-D axes, 2-D tensor grids and time meshes
// on which the HJB and FPK equations of the MFG-CP framework are discretised.
//
// The generic EDP state in the paper is S = (h, q): channel fading coefficient
// h and remaining cache space q. Fields over the state space (value function
// V, mean-field density λ, control x*) are stored as flattened row-major
// slices indexed by Grid2D.Idx.
package grid

import (
	"fmt"
	"math"
)

// Axis is a uniform 1-D grid with N nodes spanning [Min, Max] inclusive.
type Axis struct {
	Min, Max float64
	N        int
}

// NewAxis builds an axis and validates its parameters.
func NewAxis(min, max float64, n int) (Axis, error) {
	a := Axis{Min: min, Max: max, N: n}
	if err := a.Validate(); err != nil {
		return Axis{}, err
	}
	return a, nil
}

// Validate reports whether the axis is well formed.
func (a Axis) Validate() error {
	if a.N < 2 {
		return fmt.Errorf("grid: axis needs at least 2 nodes, got %d", a.N)
	}
	if !(a.Max > a.Min) {
		return fmt.Errorf("grid: axis range [%g, %g] is empty", a.Min, a.Max)
	}
	if math.IsNaN(a.Min) || math.IsNaN(a.Max) || math.IsInf(a.Min, 0) || math.IsInf(a.Max, 0) {
		return fmt.Errorf("grid: axis bounds must be finite, got [%g, %g]", a.Min, a.Max)
	}
	return nil
}

// Step returns the node spacing.
func (a Axis) Step() float64 { return (a.Max - a.Min) / float64(a.N-1) }

// At returns the coordinate of node i. Nodes outside [0, N-1] extrapolate
// linearly, which is convenient for ghost-node boundary reasoning.
func (a Axis) At(i int) float64 { return a.Min + float64(i)*a.Step() }

// Nodes materialises all node coordinates.
func (a Axis) Nodes() []float64 {
	out := make([]float64, a.N)
	for i := range out {
		out[i] = a.At(i)
	}
	return out
}

// Clamp restricts x to [Min, Max].
func (a Axis) Clamp(x float64) float64 {
	if x < a.Min {
		return a.Min
	}
	if x > a.Max {
		return a.Max
	}
	return x
}

// Locate returns the cell index i and fractional offset f in [0, 1] such that
// x ≈ At(i) + f*Step(), with x clamped to the axis range first. The returned
// i is always in [0, N-2] so (i, i+1) is a valid interpolation pair.
func (a Axis) Locate(x float64) (i int, f float64) { return a.Locator().Locate(x) }

// Locator returns the axis with its node spacing computed once, for callers
// that locate many points on one axis.
func (a Axis) Locator() Locator { return Locator{axis: a, step: a.Step()} }

// Locator is an Axis with its node spacing computed once. Its Locate is the
// axis's one locate formula: Axis.Locate reads through it.
type Locator struct {
	axis Axis
	step float64
}

// Locate is Axis.Locate without recomputing the node spacing.
func (l Locator) Locate(x float64) (i int, f float64) {
	a := l.axis
	x = a.Clamp(x)
	t := (x - a.Min) / l.step
	i = int(math.Floor(t))
	if i > a.N-2 {
		i = a.N - 2
	}
	if i < 0 {
		i = 0
	}
	f = t - float64(i)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return i, f
}

// NearestIndex returns the index of the node closest to x.
func (a Axis) NearestIndex(x float64) int {
	i, f := a.Locate(x)
	if f > 0.5 {
		return i + 1
	}
	return i
}

// Contains reports whether x lies within the axis range (inclusive).
func (a Axis) Contains(x float64) bool { return x >= a.Min && x <= a.Max }

// Grid2D is the tensor product of a channel axis H and a cache axis Q.
// Fields are flattened row-major with h as the slow index:
// value(i,j) = field[i*Q.N + j] for h index i and q index j.
type Grid2D struct {
	H, Q Axis
}

// NewGrid2D builds a 2-D grid and validates both axes.
func NewGrid2D(h, q Axis) (Grid2D, error) {
	if err := h.Validate(); err != nil {
		return Grid2D{}, fmt.Errorf("grid: H axis: %w", err)
	}
	if err := q.Validate(); err != nil {
		return Grid2D{}, fmt.Errorf("grid: Q axis: %w", err)
	}
	return Grid2D{H: h, Q: q}, nil
}

// Size returns the total number of nodes.
func (g Grid2D) Size() int { return g.H.N * g.Q.N }

// Idx flattens (i, j) — h index i, q index j — into the storage index.
func (g Grid2D) Idx(i, j int) int { return i*g.Q.N + j }

// Coords inverts Idx.
func (g Grid2D) Coords(idx int) (i, j int) { return idx / g.Q.N, idx % g.Q.N }

// NewField allocates a zeroed flattened field over the grid.
func (g Grid2D) NewField() []float64 { return make([]float64, g.Size()) }

// CellArea returns the area element dh*dq used by 2-D quadrature.
func (g Grid2D) CellArea() float64 { return g.H.Step() * g.Q.Step() }

// TimeMesh is a uniform partition of [0, Horizon] into Steps intervals,
// i.e. Steps+1 node times t_0=0 … t_Steps=Horizon.
type TimeMesh struct {
	Horizon float64
	Steps   int
}

// NewTimeMesh builds a time mesh and validates it.
func NewTimeMesh(horizon float64, steps int) (TimeMesh, error) {
	if steps < 1 {
		return TimeMesh{}, fmt.Errorf("grid: time mesh needs at least 1 step, got %d", steps)
	}
	if !(horizon > 0) || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return TimeMesh{}, fmt.Errorf("grid: horizon must be positive and finite, got %g", horizon)
	}
	return TimeMesh{Horizon: horizon, Steps: steps}, nil
}

// Dt returns the time step.
func (m TimeMesh) Dt() float64 { return m.Horizon / float64(m.Steps) }

// At returns node time t_n.
func (m TimeMesh) At(n int) float64 { return float64(n) * m.Dt() }

// Times materialises all Steps+1 node times.
func (m TimeMesh) Times() []float64 {
	out := make([]float64, m.Steps+1)
	for n := range out {
		out[n] = m.At(n)
	}
	return out
}
