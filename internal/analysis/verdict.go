package analysis

// verdict.go holds the site verdicts of HotpathReport, which judges the
// //fssga:hotpath functions by the diagnostics hotalloc raises there and
// hands the verdicts to a dynamic cross-check harness in internal/fssga
// (static dominates dynamic: a "proven" site must measure zero
// allocations).

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// A Site is one judged source location with its static verdict.
type Site struct {
	// Name is the function, as Name or RecvType.Name, or func@LINE for
	// a function literal.
	Name string `json:"name"`
	File string `json:"file"`
	Line int    `json:"line"`
	// Verdict is "proven" (no diagnostics), "audited" (every diagnostic
	// carries the analyzer's directive) or "flagged" (live diagnostics —
	// the gate is red).
	Verdict string `json:"verdict"`
}

// Verdict values of Site.
const (
	VerdictProven  = "proven"
	VerdictAudited = "audited"
	VerdictFlagged = "flagged"
)

// verdicts lists the verdict values by rank: a higher rank dominates.
var verdicts = [...]string{VerdictProven, VerdictAudited, VerdictFlagged}

// A tally counts the diagnostics raised at one site, and how many of
// them the analyzer's directive leaves live.
type tally struct {
	unit      *Unit
	directive string
	raw, live int
}

// report has the shape of Pass.Reportf, so an analyzer's checker can
// report into the tally directly.
func (t *tally) report(pos token.Pos, _ string, _ ...any) {
	t.raw++
	if !t.unit.directiveAt(pos, t.directive) {
		t.live++
	}
}

// rank returns the index of the site's verdict in verdicts.
func (t *tally) rank() int {
	switch {
	case t.live > 0:
		return 2
	case t.raw > 0:
		return 1
	}
	return 0
}

// A siteSet collects sites across units. A file loaded in both a plain
// and a test-variant unit reports its sites twice; the first unit to
// report a file:line keeps it.
type siteSet struct {
	seen  map[string]bool
	sites []Site
}

func (s *siteSet) add(site Site) {
	key := fmt.Sprintf("%s:%d", site.File, site.Line)
	if s.seen[key] {
		return
	}
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	s.seen[key] = true
	s.sites = append(s.sites, site)
}

// sorted returns the sites ordered by file, then line.
func (s *siteSet) sorted() []Site {
	sort.Slice(s.sites, func(i, j int) bool {
		if s.sites[i].File != s.sites[j].File {
			return s.sites[i].File < s.sites[j].File
		}
		return s.sites[i].Line < s.sites[j].Line
	})
	return s.sites
}

// funcName renders a declared function as Name or RecvType.Name, and a
// function literal (fn == nil) as func@LINE.
func funcName(fn *types.Func, line int) string {
	if fn == nil {
		return fmt.Sprintf("func@%d", line)
	}
	if recv := recvNamed(fn); recv != nil {
		return recv.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
