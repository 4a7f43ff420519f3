// Package trace records and renders the evolution of an FSSGA network —
// one row per synchronous round, one column per node — the textual
// counterpart of the paper's demo applet, used for debugging automata and
// for documentation output.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/fssga"
)

// History is a recorded run: a snapshot of every live node's state after
// each round.
type History[S comparable] struct {
	// Nodes lists the node IDs captured (column order).
	Nodes []int
	// Rounds[r][i] is the state of Nodes[i] after round r+1.
	Rounds [][]S
}

// Record runs `rounds` synchronous rounds on net, snapshotting all live
// nodes after each. Dead nodes at start are excluded; nodes dying mid-run
// keep reporting their frozen state.
func Record[S comparable](net *fssga.Network[S], rounds int) *History[S] {
	return RecordUntil(net, rounds, nil)
}

// RecordUntil is Record with an early-exit predicate checked after each
// round; a nil done runs all maxRounds.
func RecordUntil[S comparable](net *fssga.Network[S], maxRounds int, done func(*fssga.Network[S]) bool) *History[S] {
	h := &History[S]{}
	h.Nodes = net.Topology().Nodes(nil)
	for r := 0; r < maxRounds; r++ {
		net.SyncRound()
		row := make([]S, len(h.Nodes))
		for i, v := range h.Nodes {
			row[i] = net.State(v)
		}
		h.Rounds = append(h.Rounds, row)
		if done != nil && done(net) {
			break
		}
	}
	return h
}

// Render writes the history as an aligned table, one row per round. The
// label function maps states to short strings (fmt.Sprint if nil).
func (h *History[S]) Render(w io.Writer, label func(S) string) error {
	if label == nil {
		label = func(s S) string { return fmt.Sprint(s) }
	}
	width := 1
	for _, v := range h.Nodes {
		if l := len(fmt.Sprint(v)); l > width {
			width = l
		}
	}
	for _, row := range h.Rounds {
		for _, s := range row {
			if l := len(label(s)); l > width {
				width = l
			}
		}
	}
	pad := func(s string) string {
		if len(s) < width {
			return s + strings.Repeat(" ", width-len(s))
		}
		return s
	}
	// Header.
	cells := make([]string, len(h.Nodes))
	for i, v := range h.Nodes {
		cells[i] = pad(fmt.Sprint(v))
	}
	if _, err := fmt.Fprintf(w, "round  %s\n", strings.Join(cells, " ")); err != nil {
		return err
	}
	for r, row := range h.Rounds {
		for i, s := range row {
			cells[i] = pad(label(s))
		}
		if _, err := fmt.Fprintf(w, "%5d  %s\n", r+1, strings.Join(cells, " ")); err != nil {
			return err
		}
	}
	return nil
}

// Changed returns the rounds (1-based) in which node v's state changed
// relative to the previous snapshot (round 1 compares against itself and
// is never reported).
func (h *History[S]) Changed(v int) []int {
	col := -1
	for i, n := range h.Nodes {
		if n == v {
			col = i
		}
	}
	if col == -1 {
		return nil
	}
	var out []int
	for r := 1; r < len(h.Rounds); r++ {
		if h.Rounds[r][col] != h.Rounds[r-1][col] {
			out = append(out, r+1)
		}
	}
	return out
}
