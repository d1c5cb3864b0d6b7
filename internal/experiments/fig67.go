package experiments

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/metrics"
)

func init() {
	register("fig6", Fig6)
	register("fig7", Fig7)
}

// heatmapUnderQk solves the equilibrium for several content sizes Qk and
// reports the λ(t, q) heat map (as a table of the q-marginal at a time×space
// grid) plus the mean remaining-space trajectory, for a given initial
// distribution spread.
func heatmapUnderQk(id, title string, initStd float64, opt Options) (*Report, error) {
	rep := &Report{ID: id, Title: title}
	sizes := []float64{60, 80, 100}
	meanSet := &metrics.SeriesSet{Title: "mean remaining space over time", XLabel: "time", YLabel: "E[q] (MB)"}
	concTable := metrics.NewTable("density concentration", "Qk (MB)", "std of q at t=0", "std of q at t=T", "saturation E[q](T)/Qk")

	for _, qk := range sizes {
		p := mec.Default()
		p.Qk = qk
		p.SigmaQ = 0.1 * qk
		p.InitStdFrac = initStd
		eq, err := solveEquilibrium(solverConfig(p, opt), baseWorkload())
		if err != nil {
			return nil, fmt.Errorf("Qk=%g: %w", qk, err)
		}
		steps := eq.Time.Steps

		// Heat map rows: time × q-bins of the marginal density.
		hm := metrics.NewTable(fmt.Sprintf("heatmap Qk=%.0fMB", qk), heatmapColumns(eq.Grid.Q.Nodes())...)
		for _, frac := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
			n := int(frac * float64(steps))
			marg, err := eq.MarginalQ(n)
			if err != nil {
				return nil, err
			}
			cells := []string{fmt.Sprintf("t=%.2f", eq.Time.At(n))}
			for j := 0; j < len(marg); j += maxInt(1, len(marg)/10) {
				cells = append(cells, fmt.Sprintf("%.4f", marg[j]))
			}
			if err := hm.AddRow(cells...); err != nil {
				return nil, err
			}
		}
		rep.Tables = append(rep.Tables, hm)

		// Mean remaining space trajectory from the snapshots.
		times := make([]float64, steps+1)
		means := make([]float64, steps+1)
		for n := 0; n <= steps; n++ {
			times[n] = eq.Time.At(n)
			means[n] = eq.Snapshots[n].QBar
		}
		s, err := metrics.NewSeries(fmt.Sprintf("Qk=%.0fMB", qk), times, means)
		if err != nil {
			return nil, err
		}
		meanSet.Add(s)

		std0, err := marginalStd(eq, 0)
		if err != nil {
			return nil, err
		}
		stdT, err := marginalStd(eq, steps)
		if err != nil {
			return nil, err
		}
		if err := concTable.AddRow(
			fmt.Sprintf("%.0f", qk),
			fmt.Sprintf("%.2f", std0),
			fmt.Sprintf("%.2f", stdT),
			fmt.Sprintf("%.3f", eq.Snapshots[steps].QBar/qk),
		); err != nil {
			return nil, err
		}
	}
	rep.Sets = append(rep.Sets, meanSet)
	rep.Tables = append(rep.Tables, concTable)
	return rep, nil
}

func heatmapColumns(qNodes []float64) []string {
	cols := []string{"time"}
	for j := 0; j < len(qNodes); j += maxInt(1, len(qNodes)/10) {
		cols = append(cols, fmt.Sprintf("q=%.0f", qNodes[j]))
	}
	return cols
}

// marginalStd computes the standard deviation of the remaining space q under
// the equilibrium's marginal density at time index n.
func marginalStd(eq *engine.Equilibrium, n int) (float64, error) {
	marg, err := eq.MarginalQ(n)
	if err != nil {
		return 0, err
	}
	var mass, mean float64
	for j, v := range marg {
		q := eq.Grid.Q.At(j)
		mass += v
		mean += v * q
	}
	if mass <= 0 {
		return 0, nil
	}
	mean /= mass
	var acc float64
	for j, v := range marg {
		d := eq.Grid.Q.At(j) - mean
		acc += v * d * d
	}
	return math.Sqrt(acc / mass), nil
}

// Fig6 reproduces Figure 6: the heat map of the mean-field distribution for
// different content sizes Qk with λ(0) ~ N(0.7, 0.1²). Paper shape: caching
// space saturates progressively as Qk grows.
func Fig6(opt Options) (*Report, error) {
	rep, err := heatmapUnderQk("fig6", "Mean-field heat map vs Qk, λ(0)~N(0.7, 0.1²)", 0.1, opt)
	if err != nil {
		return nil, err
	}
	rep.Note("paper shape: larger Qk ⇒ caching space gradually saturates (strategy grows with Qk via Eq. 21)")
	return rep, nil
}

// Fig7 reproduces Figure 7: the same heat map with the tighter initial
// distribution λ(0) ~ N(0.7, 0.05²). Paper shape: the heat map is more
// concentrated (EDP caching states closer together); the Qk trend of Fig. 6
// persists.
func Fig7(opt Options) (*Report, error) {
	rep, err := heatmapUnderQk("fig7", "Mean-field heat map vs Qk, λ(0)~N(0.7, 0.05²)", 0.05, opt)
	if err != nil {
		return nil, err
	}
	rep.Note("paper shape: smaller initial variance ⇒ more concentrated heat map; Qk trend matches Fig. 6")
	return rep, nil
}
