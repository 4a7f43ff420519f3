package analysis

// audit.go inventories the suppression directives (//fssga:nondet and
// //fssga:alloc). Each directive is an audited exception to a contract;
// the audit re-runs the analyzers without suppression and attributes
// every absorbed diagnostic back to its directive, so a directive left
// behind after the offending code was fixed (or moved off its line)
// shows up as stale instead of silently widening the allowlist. The
// per-analyzer counts feed the suppression ratchet
// (scripts/suppression_ratchet.txt): totals may only grow with an
// explicit ratchet edit.

import (
	"fmt"
	"sort"
	"strings"
)

// A Directive is one suppression-directive occurrence, with the
// analyzers whose diagnostics it currently absorbs.
type Directive struct {
	File string `json:"file"`
	Line int    `json:"line"`
	// Kind is the directive comment itself: //fssga:nondet or
	// //fssga:alloc. A directive only absorbs diagnostics of analyzers
	// honouring its kind.
	Kind   string `json:"directive"`
	Reason string `json:"reason"`
	// Suppresses lists the analyzers with at least one diagnostic on the
	// directive's line or the line below, sorted and deduplicated. Empty
	// means the directive is stale: nothing fires there any more.
	Suppresses []string `json:"suppresses"`
}

// Stale reports whether the directive no longer absorbs any diagnostic.
func (d Directive) Stale() bool { return len(d.Suppresses) == 0 }

// String renders the directive in file:line form with its audit status.
func (d Directive) String() string {
	status := "STALE"
	if !d.Stale() {
		status = strings.Join(d.Suppresses, ",")
	}
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, status, d.Reason)
}

// AuditDirectives collects every suppression directive in the units and
// attributes to each the analyzers it suppresses, by running the full
// analyzer set without suppression. A diagnostic counts toward a
// directive only when the analyzer honours that directive kind.
// Directives are returned sorted by file, line and kind.
func AuditDirectives(units []*Unit, analyzers []*Analyzer) ([]Directive, error) {
	kinds := []string{NondetDirective, AllocDirective}
	type key struct {
		file string
		line int
		kind string
	}
	var order []key
	byKey := make(map[key]*Directive)
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, kind := range kinds {
						reason, ok := directiveReason(c.Text, kind)
						if !ok {
							continue
						}
						pos := u.Fset.Position(c.Pos())
						k := key{pos.Filename, pos.Line, kind}
						if byKey[k] != nil {
							break // same file loaded in two units (test builds)
						}
						byKey[k] = &Directive{
							File:       k.file,
							Line:       k.line,
							Kind:       kind,
							Reason:     reason,
							Suppresses: []string{},
						}
						order = append(order, k)
						break
					}
				}
			}
		}
	}

	raw, err := collectFindings(units, analyzers, false)
	if err != nil {
		return nil, err
	}
	directiveOf := make(map[string]string)
	for _, a := range analyzers {
		directiveOf[a.Name] = a.directive()
	}
	for _, f := range raw {
		// The driver honours a directive on the finding's line or the
		// line above it; attribution mirrors that exactly.
		for _, line := range []int{f.Line, f.Line - 1} {
			if d := byKey[key{f.File, line, directiveOf[f.Analyzer]}]; d != nil {
				d.Suppresses = append(d.Suppresses, f.Analyzer)
			}
		}
	}

	out := make([]Directive, 0, len(order))
	for _, k := range order {
		d := byKey[k]
		sort.Strings(d.Suppresses)
		d.Suppresses = compactStrings(d.Suppresses)
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Kind < out[j].Kind
	})
	return out, nil
}

// SuppressionCounts tallies, per analyzer name, how many live directives
// absorb at least one of that analyzer's diagnostics. This is the
// quantity the suppression ratchet bounds.
func SuppressionCounts(dirs []Directive) map[string]int {
	counts := make(map[string]int)
	for _, d := range dirs {
		for _, name := range d.Suppresses {
			counts[name]++
		}
	}
	return counts
}

// compactStrings removes adjacent duplicates from a sorted slice.
func compactStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
