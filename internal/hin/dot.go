package hin

import (
	"fmt"
	"io"
	"strings"
)

// WriteSchemaDOT renders the network schema as a Graphviz digraph: one
// node per entity type (labelled with its attributes) and one edge per
// link type - the paper's Figure 2/3 style meta-structure diagrams.
func WriteSchemaDOT(w io.Writer, s *Schema) error {
	var b strings.Builder
	b.WriteString("digraph schema {\n  rankdir=LR;\n  node [shape=record];\n")
	for i := 0; i < s.NumEntityTypes(); i++ {
		et := s.EntityType(EntityTypeID(i))
		label := et.Name
		if len(et.Attrs) > 0 {
			label += "|" + strings.Join(et.Attrs, `\n`)
		}
		if len(et.SetAttrs) > 0 {
			label += "|{" + strings.Join(et.SetAttrs, `\n`) + "}"
		}
		fmt.Fprintf(&b, "  %q [label=\"{%s}\"];\n", et.Name, label)
	}
	for i := 0; i < s.NumLinkTypes(); i++ {
		lt := s.LinkType(LinkTypeID(i))
		style := ""
		if lt.Weighted {
			style = ", style=bold"
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q%s];\n", lt.From, lt.To, lt.Name, style)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
