package op

import (
	"fmt"
	"sort"
	"strings"
)

// DotLTS renders the labelled transition system reachable from s, explored
// breadth-first to the given number of transitions deep, as a Graphviz
// digraph. Visible communications label solid edges; τ-steps are dashed.
// States are deduplicated by behaviour, so recursive processes draw as
// cycles. Useful for seeing a spec: `csptrace -dot file.csp proc | dot -Tsvg`.
func DotLTS(s State, depth int) (string, error) {
	type edgeRec struct {
		from, to int
		label    string
		tau      bool
	}
	var edges []edgeRec
	// A fresh explorer mints ids in breadth-first discovery order, so a
	// state's id is its number in the drawing.
	var x Explorer
	type item struct {
		id uint32
		d  int
	}
	queue := []item{{id: x.intern(s), d: 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.d >= depth {
			continue
		}
		ts, err := x.step(cur.id)
		if err != nil {
			return "", err
		}
		for i, tr := range ts {
			known := len(x.states)
			nid := x.target(cur.id, i)
			edges = append(edges, edgeRec{from: int(cur.id), to: int(nid), label: tr.Ev.String(), tau: tr.Tau})
			if int(nid) == known {
				queue = append(queue, item{id: nid, d: cur.d + 1})
			}
		}
	}

	// Deduplicate parallel edges (same endpoints+label can arise from
	// distinct resolutions).
	seen := map[string]bool{}
	var uniq []edgeRec
	for _, e := range edges {
		k := fmt.Sprintf("%d>%d>%s>%v", e.from, e.to, e.label, e.tau)
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, e)
		}
	}
	sort.Slice(uniq, func(i, j int) bool {
		if uniq[i].from != uniq[j].from {
			return uniq[i].from < uniq[j].from
		}
		if uniq[i].to != uniq[j].to {
			return uniq[i].to < uniq[j].to
		}
		return uniq[i].label < uniq[j].label
	})

	var sb strings.Builder
	sb.WriteString("digraph lts {\n")
	sb.WriteString("  rankdir=LR;\n  node [shape=circle, fontsize=10];\n")
	for id, rec := range x.states {
		short := rec.state.Proc.String()
		const maxLabel = 40
		if len(short) > maxLabel {
			short = short[:maxLabel] + "…"
		}
		shape := "circle"
		if id == 0 {
			shape = "doublecircle"
		}
		fmt.Fprintf(&sb, "  n%d [shape=%s, label=%q];\n", id, shape, fmt.Sprintf("s%d", id))
		fmt.Fprintf(&sb, "  // s%d = %s\n", id, short)
	}
	for _, e := range uniq {
		style := ""
		label := e.label
		if e.tau {
			style = ", style=dashed, color=gray40"
			label = "τ " + label
		}
		fmt.Fprintf(&sb, "  n%d -> n%d [label=%q%s];\n", e.from, e.to, label, style)
	}
	sb.WriteString("}\n")
	return sb.String(), nil
}
