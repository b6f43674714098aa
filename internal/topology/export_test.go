package topology

import (
	"bytes"
	"strings"
	"testing"

	"drqos/internal/rng"
)

func TestJSONRoundTrip(t *testing.T) {
	g, err := Waxman(WaxmanConfig{Nodes: 30, Alpha: 0.33, Beta: 0.2}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumLinks() != g.NumLinks() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumLinks(), g.NumNodes(), g.NumLinks())
	}
	for i := 0; i < g.NumLinks(); i++ {
		if g.Link(LinkID(i)) != g2.Link(LinkID(i)) {
			t.Fatalf("link %d differs", i)
		}
	}
	for i := 0; i < g.NumNodes(); i++ {
		if g.Pos(NodeID(i)) != g2.Pos(NodeID(i)) {
			t.Fatalf("node %d position differs", i)
		}
	}
}

func TestJSONPreservesTags(t *testing.T) {
	g, err := TransitStub(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumNodes(); i++ {
		if g.Tag(NodeID(i)) != g2.Tag(NodeID(i)) {
			t.Fatalf("tag lost on node %d", i)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Non-dense node IDs.
	if _, err := ReadJSON(strings.NewReader(`{"nodes":[{"id":5}],"links":[]}`)); err == nil {
		t.Fatal("non-dense node IDs accepted")
	}
	// Link referencing a missing node.
	if _, err := ReadJSON(strings.NewReader(`{"nodes":[{"id":0}],"links":[{"id":0,"a":0,"b":9}]}`)); err == nil {
		t.Fatal("dangling link accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	g := NewGraph(2)
	a := g.AddTaggedNode(Point{0, 0}, "transit")
	b := g.AddNode(Point{1, 1})
	if _, err := g.AddLink(a, b); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph \"topology\"", "n0 -- n1", "color=red"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}
