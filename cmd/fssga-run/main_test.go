package main

import "testing"

func TestBuildGraphAllNames(t *testing.T) {
	names := []string{
		"path", "cycle", "oddcycle", "grid", "torus", "complete", "star",
		"tree", "gnp", "hypercube", "barbell", "theta",
	}
	for _, name := range names {
		g, err := buildGraph(name, 24, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if g.NumNodes() < 2 {
			t.Errorf("%s: only %d nodes", name, g.NumNodes())
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !g.Connected() {
			t.Errorf("%s: disconnected", name)
		}
	}
}

func TestBuildGraphSizes(t *testing.T) {
	g, err := buildGraph("grid", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 25 { // largest square <= 30
		t.Fatalf("grid nodes = %d", g.NumNodes())
	}
	g, err = buildGraph("hypercube", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 16 { // largest power of two <= 30
		t.Fatalf("hypercube nodes = %d", g.NumNodes())
	}
	g, err = buildGraph("oddcycle", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes()%2 != 1 {
		t.Fatalf("oddcycle nodes = %d", g.NumNodes())
	}
}

func TestBuildGraphUnknown(t *testing.T) {
	if _, err := buildGraph("nope", 10, 1); err == nil {
		t.Fatal("unknown graph accepted")
	}
}
