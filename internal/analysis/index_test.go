package analysis

import "testing"

// TestIndexBuiltOncePerUnit runs two analyzers over one unit and checks
// that both read the same index.
func TestIndexBuiltOncePerUnit(t *testing.T) {
	loader := NewLoader("")
	loader.FixtureRoot = "testdata/src"
	unit, err := loader.LoadFixture("globalwrite")
	if err != nil {
		t.Fatal(err)
	}
	var indexes []*unitIndex
	probe := func(a *Analyzer) *Analyzer {
		return &Analyzer{Name: a.Name, Directive: a.Directive, Run: func(pass *Pass) error {
			indexes = append(indexes, pass.index())
			return a.Run(pass)
		}}
	}
	if _, err := RunAnalyzers([]*Unit{unit}, []*Analyzer{probe(Globalwrite), probe(Symcontract)}); err != nil {
		t.Fatal(err)
	}
	if len(indexes) != 2 || indexes[0] != indexes[1] || indexes[0] != unit.index() {
		t.Errorf("analyzers read different indexes of one unit")
	}
}
