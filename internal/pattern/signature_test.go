package pattern

import (
	"sort"
	"testing"

	"repro/internal/graph"
)

func TestSignatureDerivation(t *testing.T) {
	p := New()
	x := p.AddVar("x", "person")
	y := p.AddVar("y", "blog")
	z := p.AddVar("z", graph.Wildcard)
	p.AddEdge(x, y, "post")
	p.AddEdge(x, y, "post") // duplicate label collapses to one entry
	p.AddEdge(x, z, "cite")
	p.AddEdge(z, x, graph.Wildcard)
	p.AddEdge(y, y, "self")

	tests := []struct {
		name            string
		v               Var
		wantOut, wantIn []string
	}{
		{"fan-out labels deduped and sorted", x, []string{"cite", "post"}, []string{graph.Wildcard}},
		{"self-loop contributes both sides", y, []string{"self"}, []string{"post", "self"}},
		{"wildcard edge kept as requirement", z, []string{graph.Wildcard}, []string{"cite"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sig := p.Signature(tc.v)
			if !equalStrings(sig.Out, tc.wantOut) || !equalStrings(sig.In, tc.wantIn) {
				t.Errorf("Signature(%s) = %+v, want Out=%v In=%v", p.Name(tc.v), sig, tc.wantOut, tc.wantIn)
			}
		})
	}
}

func TestSignatureIsolatedVarIsEmpty(t *testing.T) {
	p := New()
	v := p.AddVar("x", "person")
	sig := p.Signature(v)
	if len(sig.Out) != 0 || len(sig.In) != 0 {
		t.Fatalf("isolated variable signature = %+v, want empty", sig)
	}
}

// TestSignatureSoundOnMatches asserts the pruning invariant the match layer
// relies on: every node participating in a homomorphism covers the
// signature of the variable it matches.
func TestSignatureSoundOnMatches(t *testing.T) {
	g := graph.New()
	a := g.AddNode("person")
	b := g.AddNode("blog")
	g.AddEdge(a, b, "post")
	g.AddEdge(b, b, "self")

	p := New()
	x := p.AddVar("x", "person")
	y := p.AddVar("y", "blog")
	p.AddEdge(x, y, "post")
	p.AddEdge(y, y, "self")

	covers := func(v graph.NodeID, sig graph.Signature) bool {
		return g.CoversIDs(v, g.ResolveLabels(sig.Out), g.ResolveLabels(sig.In))
	}
	if !covers(a, p.Signature(x)) {
		t.Error("matching node a fails Covers for x")
	}
	if !covers(b, p.Signature(y)) {
		t.Error("matching node b fails Covers for y")
	}
	// And the prune actually rejects an impossible candidate: a person with
	// no outgoing post edge can never match x.
	c := g.AddNode("person")
	if covers(c, p.Signature(x)) {
		t.Error("edge-less node passes Covers for x; prune has no teeth")
	}
}

func equalStrings(a, b []string) bool {
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
