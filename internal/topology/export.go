package topology

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonGraph is the serialized form of a Graph.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Links []jsonLink `json:"links"`
}

type jsonNode struct {
	ID  int     `json:"id"`
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
	Tag string  `json:"tag,omitempty"`
}

type jsonLink struct {
	ID int `json:"id"`
	A  int `json:"a"`
	B  int `json:"b"`
}

// WriteJSON serializes the graph as JSON.
func WriteJSON(w io.Writer, g *Graph) error {
	jg := jsonGraph{
		Nodes: make([]jsonNode, g.NumNodes()),
		Links: make([]jsonLink, g.NumLinks()),
	}
	for i := 0; i < g.NumNodes(); i++ {
		p := g.Pos(NodeID(i))
		jg.Nodes[i] = jsonNode{ID: i, X: p.X, Y: p.Y, Tag: g.Tag(NodeID(i))}
	}
	for i, l := range g.links {
		jg.Links[i] = jsonLink{ID: int(l.ID), A: int(l.A), B: int(l.B)}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jg)
}

// WriteDOT renders the graph in Graphviz DOT format for visual inspection.
func WriteDOT(w io.Writer, g *Graph, name string) error {
	if name == "" {
		name = "topology"
	}
	if _, err := fmt.Fprintf(w, "graph %q {\n  node [shape=point];\n", name); err != nil {
		return err
	}
	for i := 0; i < g.NumNodes(); i++ {
		p := g.Pos(NodeID(i))
		color := "black"
		if g.Tag(NodeID(i)) == "transit" {
			color = "red"
		}
		if _, err := fmt.Fprintf(w, "  n%d [pos=\"%.4f,%.4f!\", color=%s];\n", i, p.X, p.Y, color); err != nil {
			return err
		}
	}
	for _, l := range g.links {
		if _, err := fmt.Fprintf(w, "  n%d -- n%d;\n", l.A, l.B); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
