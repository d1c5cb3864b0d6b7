package pde

import (
	"fmt"
	"math"
)

// ErrCFLViolation is returned when an explicit integration would violate its
// stability bound. The error text carries the worst ratio and the step count
// that would satisfy the condition.
type ErrCFLViolation struct {
	Ratio     float64 // worst dt/dt_max over the grid (>1 is unstable)
	NeedSteps int     // time steps that would satisfy the bound
}

func (e *ErrCFLViolation) Error() string {
	return fmt.Sprintf("pde: explicit scheme violates the CFL bound (ratio %.2f); use ≥ %d time steps or the implicit scheme", e.Ratio, e.NeedSteps)
}

// explicitForwardConservative advances one explicit conservative FV sweep
// with the same flux discretisation as the implicit variant. It returns the
// worst CFL ratio encountered (diagonal positivity of the update matrix).
func (s *sweeper) explicitForwardConservative(b []float64, dt, dx, diff float64) float64 {
	n := s.n
	r := dt / dx
	dd := diff / dx
	worst := 0.0
	// Compute fluxes at all interior faces from the old values in s.rhs.
	// flux[i] is the face below node i; zero-flux at both boundaries.
	flux := s.flux
	flux[0], flux[n] = 0, 0
	for i := 0; i < n-1; i++ {
		bFace := 0.5 * (b[i] + b[i+1])
		up := posPart(bFace)*s.rhs[i] + negPart(bFace)*s.rhs[i+1]
		flux[i+1] = up - dd*(s.rhs[i+1]-s.rhs[i])
	}
	for i := 0; i < n; i++ {
		s.sol[i] = s.rhs[i] - r*(flux[i+1]-flux[i])
		// Stability: the coefficient of λ_i in the explicit update must stay
		// non-negative: 1 − r(|b_up⁺| + |b_lo⁻| + faces·dd) ≥ 0.
		var drain float64
		if i < n-1 {
			bFace := 0.5 * (b[i] + b[i+1])
			drain += posPart(bFace) + dd
		}
		if i > 0 {
			bFace := 0.5 * (b[i-1] + b[i])
			drain += -negPart(bFace) + dd
		}
		if ratio := r * drain; ratio > worst {
			worst = ratio
		}
	}
	return worst
}

// explicitBackwardValue advances one explicit sweep of the backward value
// update V_new = V_old + dt·(b·∂V + D·∂²V) with upwind differences, returning
// the worst CFL ratio.
func (s *sweeper) explicitBackwardValue(b []float64, dt, dx, diff float64) float64 {
	n := s.n
	dd := diff / (dx * dx)
	worst := 0.0
	for i := 0; i < n; i++ {
		bi := b[i]
		// Neumann ghost values mirror the boundary node.
		vm := s.rhs[i]
		if i > 0 {
			vm = s.rhs[i-1]
		}
		vp := s.rhs[i]
		if i < n-1 {
			vp = s.rhs[i+1]
		}
		var adv float64
		if bi >= 0 {
			adv = bi * (vp - s.rhs[i]) / dx
		} else {
			adv = bi * (s.rhs[i] - vm) / dx
		}
		s.sol[i] = s.rhs[i] + dt*(adv+dd*(vp-2*s.rhs[i]+vm))
		if ratio := dt * (math.Abs(bi)/dx + 2*dd); ratio > worst {
			worst = ratio
		}
	}
	return worst
}

// cflError converts a worst-ratio diagnostic into an error when unstable.
func cflError(worst float64, steps int) error {
	if worst <= 1+1e-12 {
		return nil
	}
	return &ErrCFLViolation{Ratio: worst, NeedSteps: int(math.Ceil(float64(steps) * worst))}
}
