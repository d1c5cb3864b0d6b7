package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/policy"
)

func quickOpt() Options { return Options{Seed: 1, Quick: true} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"ext-capacity", "ext-exactgame", "ext-longrun", "fig10", "fig11", "fig12", "fig13", "fig14", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table2"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nonexistent", quickOpt()); err == nil {
		t.Error("unknown id should error")
	}
}

// Every registered experiment must run to completion in quick mode and
// produce a renderable report with at least one table or series set.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, quickOpt())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if rep.ID != id {
				t.Errorf("report id %q, want %q", rep.ID, id)
			}
			if len(rep.Tables)+len(rep.Sets) == 0 {
				t.Error("report carries no tables or series")
			}
			var buf bytes.Buffer
			if err := rep.Render(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
			if !strings.Contains(buf.String(), id) {
				t.Error("rendered report does not mention its id")
			}
		})
	}
}

func TestReportWriteCSV(t *testing.T) {
	rep, err := Run("fig3", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(rep.Tables)+len(rep.Sets) {
		t.Fatalf("wrote %d files, want %d", len(entries), len(rep.Tables)+len(rep.Sets))
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "fig3_") || !strings.HasSuffix(e.Name(), ".csv") {
			t.Errorf("unexpected artefact name %q", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", e.Name())
		}
	}
}

func TestSlug(t *testing.T) {
	if got := slug("Mean-Field Heat Map (Qk)"); got != "mean_field_heat_map_qk" {
		t.Errorf("slug = %q", got)
	}
	if got := slug("___"); got != "" {
		t.Errorf("slug of separators = %q", got)
	}
}

// Shape assertions on the headline results, in quick mode.

func TestFig5ShapeIncreasingInQ(t *testing.T) {
	rep, err := Run("fig5", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	// First series of the first set is x* over q at t=0.
	s := rep.Sets[0].Series[0]
	// Compare x* deep in the paper's plotted range [10, 50].
	var x10, x50 float64
	for i, q := range s.Times {
		if q == 10 {
			x10 = s.Values[i]
		}
		if q == 50 {
			x50 = s.Values[i]
		}
	}
	if x50 <= x10 {
		t.Errorf("x*(q=50)=%.3f should exceed x*(q=10)=%.3f", x50, x10)
	}
}

func TestFig14MFGCPWins(t *testing.T) {
	rep, err := Run("fig14", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.Tables[0] // scheme comparison
	utilities := map[string]float64{}
	for _, row := range tab.Rows {
		u, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad utility cell %q", row[1])
		}
		utilities[row[0]] = u
	}
	for _, base := range []string{"MFG", "UDCS", "MPC", "RR"} {
		if utilities["MFG-CP"] <= utilities[base] {
			t.Errorf("MFG-CP (%.1f) should beat %s (%.1f)", utilities["MFG-CP"], base, utilities[base])
		}
	}
}

// TestTable2MFGCPFlatInM checks Table II's claim by counted work, not by
// wall time, which load on the host distorts: one MFG-CP Prepare runs the
// same equilibrium solves and best-response iterations at every population
// size M, while RR prepares one strategy row per EDP. The report keeps the
// timing table.
func TestTable2MFGCPFlatInM(t *testing.T) {
	ms, _ := table2Sweep(quickOpt())
	var mfgWork []string
	for _, m := range ms {
		reg := obs.NewRegistry(nil)
		opt := quickOpt()
		opt.Obs = reg
		ctx, err := strategyContext(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range table2Policies() {
			if err := pol.Prepare(ctx); err != nil {
				t.Fatalf("%s, M=%d: %v", pol.Name(), m, err)
			}
			switch pol.Name() {
			case "MFG-CP":
				c := reg.Snapshot().Counters
				if c["core.solver.solves"] == 0 {
					t.Fatalf("M=%d: MFG-CP prepared without a solve", m)
				}
				mfgWork = append(mfgWork, fmt.Sprintf("%g solves, %g iterations",
					c["core.solver.solves"], c["core.solver.iterations"]))
			case "RR":
				if rows := strategyRows(t, pol, m, ctx.Params.K); rows != m {
					t.Errorf("M=%d: RR prepared %d distinct strategy rows, want one per EDP", m, rows)
				}
			}
		}
	}
	t.Logf("MFG-CP work per Prepare at M=%v: %v", ms, mfgWork)
	for _, w := range mfgWork[1:] {
		if w != mfgWork[0] {
			t.Errorf("MFG-CP work per Prepare changed with M %v: %v", ms, mfgWork)
			break
		}
	}
}

// strategyRows counts the distinct per-EDP rate rows pol serves to EDPs
// 0..2m-1, at one fixed time and state.
func strategyRows(t *testing.T, pol policy.Policy, m, k int) int {
	t.Helper()
	rows := map[string]bool{}
	for edp := 0; edp < 2*m; edp++ {
		row := make([]float64, k)
		for c := range row {
			x, err := pol.Rate(edp, c, 0, 1, 50)
			if err != nil {
				t.Fatal(err)
			}
			row[c] = x
		}
		rows[fmt.Sprint(row)] = true
	}
	return len(rows)
}

func TestPopularityTrace(t *testing.T) {
	ds, err := popularityTrace(5, 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	shares := ds.CategoryShares()
	if shares[0] < 0.59 || shares[0] > 0.61 {
		t.Errorf("target share = %g, want ≈0.6", shares[0])
	}
	if _, err := popularityTrace(1, 0.5, 1); err == nil {
		t.Error("k<2 should error")
	}
	if _, err := popularityTrace(5, 1.5, 1); err == nil {
		t.Error("pi>1 should error")
	}
}
