package exp

import (
	"bytes"
	"strings"
	"testing"
)

// quickOpts runs every experiment in its reduced configuration.
func quickOpts() Options { return Options{Seed: 42, Quick: true} }

func TestTablePrint(t *testing.T) {
	tab := &Table{
		ID:      "T",
		Title:   "demo",
		Claim:   "c",
		Columns: []string{"a", "bb"},
	}
	tab.AddRow(1, "x")
	tab.AddRow(2.5, "yy")
	tab.Note("note %d", 7)
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== T: demo", "claim: c", "a", "bb", "2.5", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != 13 {
		t.Fatalf("ids = %v", ids)
	}
	if ids[0] != "E1" || ids[3] != "E4" || ids[9] != "E10" || ids[12] != "E13" {
		t.Fatalf("ids = %v", ids)
	}
}

// Every experiment must run in quick mode and produce a non-empty table.
// Claims themselves are verified by the focused assertions below and by
// each algorithm package's own tests.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			tab := Registry[id](quickOpts())
			if tab.ID != id {
				t.Fatalf("table ID %q", tab.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			var buf bytes.Buffer
			tab.Print(&buf)
			if buf.Len() == 0 {
				t.Fatal("empty output")
			}
		})
	}
}

func TestE1AccuracyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tab := E1Census(quickOpts())
	// Every fraction-within-2x cell must be >= 0.6.
	for _, row := range tab.Rows {
		frac := row[6]
		if frac < "0.6" && frac != "1" {
			t.Fatalf("low accuracy row: %v", row)
		}
	}
}

func TestE13SensitivityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tab := E13Sensitivity(quickOpts())
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	// 0-sensitive rows: no critical runs, all non-critical correct.
	for _, name := range []string{"fm-census", "shortest-path"} {
		row := byName[name]
		if row == nil {
			t.Fatalf("missing row %s", name)
		}
		if row[4] != "0" {
			t.Fatalf("%s had critical runs: %v", name, row)
		}
		if row[5] != row[6] {
			t.Fatalf("%s failed non-critical runs: %v", name, row)
		}
	}
	// β synchronizer: Θ(n)-sized χ.
	beta := byName["beta-synchronizer"]
	if beta == nil {
		t.Fatal("missing beta row")
	}
	if beta[2] == "0" || beta[2] == "1" {
		t.Fatalf("beta χ too small: %v", beta)
	}
}

// TestRunAllProducesAllTables also holds every experiment to Options'
// promise that a fixed seed reproduces its table exactly: RunAll's
// output must hold each table as a second run on the same seed prints
// it.
func TestRunAllProducesAllTables(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	var buf bytes.Buffer
	RunAll(quickOpts(), &buf)
	out := buf.String()
	for _, id := range IDs() {
		if !strings.Contains(out, "== "+id+":") {
			t.Fatalf("missing table %s", id)
		}
		var again bytes.Buffer
		Registry[id](quickOpts()).Print(&again)
		if !strings.Contains(out, again.String()) {
			t.Fatalf("a second run of %s on the same seed printed a different table:\n%s", id, again.String())
		}
	}
}

func TestPrintMarkdown(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Claim: "c", Columns: []string{"a", "b"}}
	tab.AddRow(1, 2)
	tab.Note("hello")
	var buf bytes.Buffer
	tab.PrintMarkdown(&buf)
	out := buf.String()
	for _, want := range []string{"### T — demo", "**Claim:** c", "| a | b |", "| --- | --- |", "| 1 | 2 |", "*hello*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}
