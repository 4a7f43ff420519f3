package analysis

import "testing"

// TestIndexBuiltOncePerUnit runs two analyzers over one unit and checks
// that both read the same index and the same concurrency context.
func TestIndexBuiltOncePerUnit(t *testing.T) {
	loader := NewLoader("")
	loader.FixtureRoot = "testdata/src"
	unit, err := loader.LoadFixture("lockframe")
	if err != nil {
		t.Fatal(err)
	}
	var indexes []*unitIndex
	var contexts []*concCtx
	probe := func(a *Analyzer) *Analyzer {
		return &Analyzer{Name: a.Name, Directive: a.Directive, Run: func(pass *Pass) error {
			indexes = append(indexes, pass.index())
			contexts = append(contexts, pass.conc())
			return a.Run(pass)
		}}
	}
	if _, err := RunAnalyzers([]*Unit{unit}, []*Analyzer{probe(Goroleak), probe(Lockorder)}); err != nil {
		t.Fatal(err)
	}
	if len(indexes) != 2 || indexes[0] != indexes[1] || indexes[0] != unit.index() {
		t.Errorf("analyzers read different indexes of one unit")
	}
	if len(contexts) != 2 || contexts[0] != contexts[1] || contexts[0] != indexes[0].concCtx {
		t.Errorf("analyzers read different concurrency contexts of one unit")
	}
}
