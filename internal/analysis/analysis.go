// Package analysis is a small, dependency-free static-analysis framework
// in the spirit of golang.org/x/tools/go/analysis, together with the 5
// fssga-vet analyzers that prove this repository's model and hot-path
// contracts at the source level. Two guard what a transition function
// may touch:
//
//   - viewpure: FSSGA transition functions treat their View as a
//     read-only, non-retainable observation ("nodes read neighbour
//     states, write only their own", Pritchard & Vempala Section 2);
//   - globalwrite: no writes to package-level variables reachable from
//     the parallel engine's worker entry points (Automaton.Step and `go`
//     bodies), which would race under SyncRoundParallel.
//
// Two model-contract analyzers prove the FSSGA model itself at the
// source level:
//
//   - symcontract: transition functions observe the View only as a
//     multiset — order-invariant ForEach folds, compile-time constant
//     observation caps (so none grows with the network size), no node
//     identity captured into Step-shaped closures (Def. 3.1,
//     Theorem 3.7);
//   - finstate: the state space reachable from a Step stays finite —
//     no unclamped arithmetic on state values, no state types with
//     unbounded value domains (Section 2). It walks each Step body's
//     statements to a fixed point, splitting the fact at every
//     condition, with no control-flow graph.
//
// Beside them, capinfer.go infers each automaton's mod-thresh footprint
// as a report, not an analyzer: fssga-vet -contracts emits it, and
// internal/mc cross-checks it against enumeration-derived witness
// bounds (Theorem 3.7).
//
// The framework loads and type-checks packages with the standard library
// only (go/parser + go/types, imports resolved through `go list -export`
// export data with a source-importer fallback), so it runs in hermetic
// build environments where golang.org/x/tools is unavailable. Every
// analyzer over a unit reads one index of the unit's facts (index.go):
// its non-test files, declarations, Step-shaped functions and directive
// lines, built once on first use.
//
// A hot-path analyzer extends the suite beyond the model to the
// engine's performance contract:
//
//   - hotalloc: functions marked //fssga:hotpath must be provably free
//     of heap allocation — no append growth, interface boxing, escaping
//     composite literals, closures or map/slice/string conversions —
//     with audited exceptions carried by //fssga:alloc(reason).
//
// That a run is a function of its seed has no static rule. Each
// activation draws from a stream keyed by (seed, node, epoch), and the
// dynamic suite checks the outcome: internal/fssga's engine differential
// steps the randomized automata against a linear-scan reference,
// election's trajectories are pinned, internal/chaos runs every replay
// cell twice and replays it, and the outputs built from maps
// (chaos.TargetNames, checkpoint.MemFS.List, exp.IDs) have sortedness
// tests.
//
// That shard-pool workers write only their claimed chunks' change
// buffers and never the committed states is checked dynamically, by the
// worker-count differentials run under the race detector.
//
// The scheduler's side of the model (Def 3.11: fair scheduling,
// constant work per activation) has no static rule either. The race
// detector at one and two CPUs checks the pool's atomics, testutil.NoLeak
// that its goroutines stop, internal/fssga's TestWakeHandoffNeverBlocks
// that the round owner never parks on a wake channel, and
// internal/checkpoint's TestFSConcurrentUse the filesystems' mutexes.
//
// A diagnostic at a call site that has been audited and found safe is
// suppressed by a directive comment placed on the flagged line or the
// line directly above it:
//
//	//fssga:nondet <reason>
//	//fssga:alloc(<reason>)
//
// Each analyzer honours exactly one directive kind (//fssga:nondet by
// default, //fssga:alloc for hotalloc), so an allocation cannot be
// waved through by a model-contract audit or vice versa. The reason is
// mandatory free text: it should say why the site keeps the model
// contract (nondet) or why the allocation is acceptable on a hot path
// (alloc).
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer describes one invariant-checking pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and -analyzers filters.
	Name string

	// Doc is a one-paragraph description of the contract the pass proves.
	Doc string

	// Directive, if non-empty, is the suppression directive comment this
	// analyzer honours instead of the default //fssga:nondet. Analyzers
	// proving different contracts use distinct directives so an audit
	// for one contract cannot silently absorb violations of another.
	Directive string

	// Run executes the pass over one type-checked unit, reporting
	// findings through pass.Report.
	Run func(pass *Pass) error
}

// directive returns the suppression directive the analyzer honours.
func (a *Analyzer) directive() string {
	if a.Directive != "" {
		return a.Directive
	}
	return NondetDirective
}

// A Pass connects an Analyzer to one type-checked unit of source code.
// Every pass over a unit shares the unit's index (index.go).
type Pass struct {
	Analyzer *Analyzer
	*Unit

	// Report delivers one diagnostic. The driver applies //fssga:nondet
	// suppression and ordering; passes just report everything they find.
	Report func(d Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within the unit's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic as emitted by the driver: position
// translated to file/line/column, tagged with the analyzer that found it.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// NondetDirective is the default allowlist comment: it suppresses a
// symmetry, finite-state, view-purity or global-write finding on its
// own line or the line below. Its reason says why the site keeps the
// model contract.
const NondetDirective = "//fssga:nondet"

// AllocDirective is the hot-path allowlist comment: //fssga:alloc(reason)
// suppresses a hotalloc finding on its own line or the line below. The
// parenthesized reason is mandatory — an unexplained allocation waiver
// is not a directive at all.
const AllocDirective = "//fssga:alloc"

// directiveReason parses a comment against a directive prefix. It
// accepts the two committed forms — "//fssga:nondet <reason>" and
// "//fssga:alloc(<reason>)" — and rejects longer identifiers sharing the
// prefix (e.g. //fssga:nondeterministic), parenthesized directives with
// no closing paren, and an empty reason: a suppression without a reason
// suppresses nothing. Only the //fssga:hotpath marker stands alone.
func directiveReason(text, prefix string) (reason string, ok bool) {
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := text[len(prefix):]
	if strings.HasPrefix(rest, "(") {
		i := strings.LastIndex(rest, ")")
		if i < 1 {
			return "", false
		}
		reason = strings.TrimSpace(rest[1:i])
		return reason, reason != ""
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	reason = strings.TrimSpace(rest)
	return reason, reason != "" || prefix == HotpathDirective
}

// collectFindings executes the analyzers over the units and returns the
// findings sorted. With suppress set, a diagnostic on or below a line
// carrying the directive its analyzer honours is dropped; the audit
// layer runs without it, to tell live directives from stale ones.
func collectFindings(units []*Unit, analyzers []*Analyzer, suppress bool) ([]Finding, error) {
	var findings []Finding
	for _, u := range units {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Unit: u}
			pass.Report = func(d Diagnostic) {
				if suppress && u.directiveAt(d.Pos, a.directive()) {
					return
				}
				pos := u.Fset.Position(d.Pos)
				findings = append(findings, Finding{
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, u.Path, err)
			}
		}
	}
	sortFindings(findings)
	return findings, nil
}

// sortFindings orders findings by file, line, column, analyzer, message —
// a total order, so JSON output is byte-stable across runs.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// RunAnalyzers executes the analyzers over the units, honouring each
// analyzer's suppression directive (//fssga:nondet by default,
// //fssga:alloc for hotalloc — a finding is absorbed only by the
// directive its analyzer honours), and returns all surviving findings
// sorted by file, line, column, analyzer, message.
func RunAnalyzers(units []*Unit, analyzers []*Analyzer) ([]Finding, error) {
	findings, err := collectFindings(units, analyzers, true)
	if err != nil || len(findings) == 0 {
		return nil, err
	}
	return findings, nil
}

// All returns the full fssga-vet suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		Viewpure, Globalwrite, Symcontract, Finstate, Hotalloc,
	}
}

// Lookup resolves a comma-separated analyzer list ("viewpure,hotalloc")
// against the suite, preserving suite order.
func Lookup(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("analysis: unknown analyzer(s) %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
