package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestViewpure(t *testing.T) {
	analysistest.Run(t, analysis.Viewpure, "viewpure", "viewpure_real")
}

func TestGlobalwrite(t *testing.T) { analysistest.Run(t, analysis.Globalwrite, "globalwrite") }

func TestSymcontract(t *testing.T) { analysistest.Run(t, analysis.Symcontract, "symcontract") }

func TestFinstate(t *testing.T) { analysistest.Run(t, analysis.Finstate, "finstate") }

// The capinfer fixture's one unbounded footprint comes from a
// non-constant cap, which symcontract flags at the cap itself.
func TestCapinfer(t *testing.T) { analysistest.Run(t, analysis.Symcontract, "capinfer") }

func TestHotalloc(t *testing.T) { analysistest.Run(t, analysis.Hotalloc, "hotalloc") }

func TestHotallocMultiHop(t *testing.T) { analysistest.Run(t, analysis.Hotalloc, "hotdeep") }

// loadFixture loads one fixture package as a unit.
func loadFixture(t *testing.T, name string) *analysis.Unit {
	t.Helper()
	loader := analysis.NewLoader("")
	loader.FixtureRoot = analysistest.DefaultFixtureRoot
	unit, err := loader.LoadFixture(name)
	if err != nil {
		t.Fatalf("loading fixture %q: %v", name, err)
	}
	return unit
}

// TestHotpathReportCycle pins transitive verdicts under recursion: a
// and b call each other and only b carries an audited allocation, so
// both are audited, whichever function the report visits first.
func TestHotpathReportCycle(t *testing.T) {
	analysistest.Run(t, analysis.Hotalloc, "hotcycle")
	unit := loadFixture(t, "hotcycle")
	for run := 0; run < 200; run++ {
		sites, err := analysis.HotpathReport([]*analysis.Unit{unit})
		if err != nil {
			t.Fatal(err)
		}
		if len(sites) != 2 {
			t.Fatalf("HotpathReport = %+v, want sites for a and b", sites)
		}
		for _, s := range sites {
			if s.Verdict != analysis.VerdictAudited {
				t.Fatalf("run %d: %s is %q, want %q", run, s.Name, s.Verdict, analysis.VerdictAudited)
			}
		}
	}
}
