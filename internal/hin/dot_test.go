package hin

import (
	"strings"
	"testing"
)

func TestWriteSchemaDOT(t *testing.T) {
	s := MustSchema(
		[]EntityType{
			{Name: "User", Attrs: []string{"yob"}, SetAttrs: []string{"tags"}},
			{Name: "Tweet"},
		},
		[]LinkType{
			{Name: "post", From: "User", To: "Tweet"},
			{Name: "mention", From: "Tweet", To: "User", Weighted: true},
		},
	)
	var b strings.Builder
	if err := WriteSchemaDOT(&b, s); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"digraph schema",
		`"User"`,
		`"User" -> "Tweet" [label="post"]`,
		`"Tweet" -> "User" [label="mention", style=bold]`,
		"yob",
		"tags",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("schema DOT missing %q:\n%s", want, out)
		}
	}
}
