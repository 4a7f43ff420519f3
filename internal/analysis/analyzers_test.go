package analysis_test

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestDetrand(t *testing.T) { analysistest.Run(t, analysis.Detrand, "detrand") }

func TestMaporder(t *testing.T) { analysistest.Run(t, analysis.Maporder, "maporder") }

func TestViewpure(t *testing.T) {
	analysistest.Run(t, analysis.Viewpure, "viewpure", "viewpure_real")
}

func TestSeedplumb(t *testing.T) { analysistest.Run(t, analysis.Seedplumb, "seedplumb") }

func TestGlobalwrite(t *testing.T) { analysistest.Run(t, analysis.Globalwrite, "globalwrite") }

func TestSymcontract(t *testing.T) { analysistest.Run(t, analysis.Symcontract, "symcontract") }

func TestFinstate(t *testing.T) { analysistest.Run(t, analysis.Finstate, "finstate") }

func TestCapinfer(t *testing.T) { analysistest.Run(t, analysis.Capinfer, "capinfer") }

func TestHotalloc(t *testing.T) { analysistest.Run(t, analysis.Hotalloc, "hotalloc") }

func TestShardsafe(t *testing.T) { analysistest.Run(t, analysis.Shardsafe, "shardsafe/fssga") }

func TestGoroleak(t *testing.T) { analysistest.Run(t, analysis.Goroleak, "goroleak") }

func TestChanprotocol(t *testing.T) { analysistest.Run(t, analysis.Chanprotocol, "chanprotocol") }

func TestLockorder(t *testing.T) { analysistest.Run(t, analysis.Lockorder, "lockorder") }

func TestAtomicmix(t *testing.T) { analysistest.Run(t, analysis.Atomicmix, "atomicmix") }

// A call that only spawns a goroutine returns at once: it cannot block
// while its caller holds a lock, whatever the spawned code does.
func TestLockorderInFrameCalls(t *testing.T) { analysistest.Run(t, analysis.Lockorder, "lockframe") }

// Summaries propagate more than one call deep, from a helper declared
// after its caller whose effect sits behind a leading branch.
func TestLockorderMultiHop(t *testing.T) { analysistest.Run(t, analysis.Lockorder, "lockdeep") }

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

// TestLockorderNamesAreDeterministic runs lockorder repeatedly over one
// lock written through seven receiver names: every run must name it the
// same way, as it is written at its first acquisition in source order.
func TestLockorderNamesAreDeterministic(t *testing.T) {
	analysistest.Run(t, analysis.Lockorder, "lockname")
	unit := loadFixture(t, "lockname")
	var first []string
	for run := 0; run < 50; run++ {
		findings, err := analysis.RunAnalyzers([]*analysis.Unit{unit}, []*analysis.Analyzer{analysis.Lockorder})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range findings {
			got = append(got, f.String())
		}
		if run == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d reported %q, run 0 reported %q", run, got, first)
		}
	}
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
