package main

import (
	"encoding/json"
	"fmt"

	"github.com/hinpriv/dehin/internal/hin"
)

// snippet is one /v1/dehin request: the 1-hop neighbourhood (strengths
// and profile attributes, both directions) of one member of the
// anonymized community, with the member at index 0, plus the fixture
// entity actually behind it.
type snippet struct {
	body     []byte
	truth    hin.EntityID
	entities []snipEntity
	links    []snipLink
}

type snipEntity struct {
	Type  string  `json:"type"`
	Attrs []int64 `json:"attrs"`
}

type snipLink struct {
	Type     string `json:"type"`
	From     int    `json:"from"`
	To       int    `json:"to"`
	Strength int32  `json:"strength,omitempty"`
}

// The daemon's default snippet limits (serve.Config.MaxSnippetEntities
// and MaxSnippetEdges). A few community hubs have larger neighbourhoods;
// the daemon rightly refuses those with 413, so they are not sent.
const (
	maxSnippetEntities = 256
	maxSnippetLinks    = 1024
)

// buildSnippets makes one snippet per member of the released target
// whose neighbourhood fits the daemon's limits.
func buildSnippets(t *target) ([]*snippet, error) {
	g := t.graph
	schema := g.Schema()
	var out []*snippet
	for v := 0; v < g.NumEntities(); v++ {
		s := &snippet{truth: t.truth[v]}
		local := map[hin.EntityID]int{}
		add := func(u hin.EntityID) int {
			if i, ok := local[u]; ok {
				return i
			}
			local[u] = len(s.entities)
			s.entities = append(s.entities, snipEntity{
				Type:  schema.EntityType(g.EntityType(u)).Name,
				Attrs: append([]int64(nil), g.Attrs(u)...),
			})
			return local[u]
		}
		me := hin.EntityID(v)
		add(me)
		for lt := 0; lt < schema.NumLinkTypes(); lt++ {
			name := schema.LinkType(hin.LinkTypeID(lt)).Name
			to, ws := g.OutEdges(hin.LinkTypeID(lt), me)
			for i, u := range to {
				s.links = append(s.links, snipLink{Type: name, From: 0, To: add(u), Strength: ws[i]})
			}
			from, ws := g.InEdges(hin.LinkTypeID(lt), me)
			for i, u := range from {
				if u == me {
					continue // a self-loop is already an out-edge
				}
				s.links = append(s.links, snipLink{Type: name, From: add(u), To: 0, Strength: ws[i]})
			}
		}
		if len(s.entities) > maxSnippetEntities || len(s.links) > maxSnippetLinks {
			continue
		}
		body, err := json.Marshal(struct {
			Target   int          `json:"target"`
			Entities []snipEntity `json:"entities"`
			Links    []snipLink   `json:"links"`
		}{0, s.entities, s.links})
		if err != nil {
			return nil, err
		}
		s.body = body
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no community member's neighbourhood fits the snippet limits")
	}
	return out, nil
}

// graph materializes the snippet over schema with hin.Builder, the way
// the daemon's /v1/dehin handler does before querying.
func (s *snippet) graph(schema *hin.Schema) (*hin.Graph, error) {
	b := hin.NewBuilder(schema)
	for i, e := range s.entities {
		t, ok := schema.EntityTypeID(e.Type)
		if !ok {
			return nil, fmt.Errorf("entity %d: unknown type %q", i, e.Type)
		}
		b.AddEntity(t, fmt.Sprintf("t%d", i), e.Attrs...)
	}
	for i, l := range s.links {
		lt, ok := schema.LinkTypeID(l.Type)
		if !ok {
			return nil, fmt.Errorf("link %d: unknown type %q", i, l.Type)
		}
		w := l.Strength
		if w == 0 {
			w = 1
		}
		if err := b.AddEdge(lt, hin.EntityID(l.From), hin.EntityID(l.To), w); err != nil {
			return nil, fmt.Errorf("link %d: %w", i, err)
		}
	}
	return b.Build()
}
