// Fixtures for the overlaystale analyzer: Overlay reads after the backing
// Delta is mutated are flagged (lexically and through loop back-edges);
// re-taking the overlay after the mutation batch is the fix.
package overlaystale

import (
	"bytes"

	"fixtures/graph"
)

func sink(o *graph.Overlay) int { return o.NumNodes() }

func lexicallyStale(d *graph.Delta) int {
	o := d.Overlay()
	d.AddNode("person")
	return o.NumNodes() // want "uses a stale Overlay"
}

// Re-taking the overlay after the mutation batch is the documented fix.
func retakenAfterMutation(d *graph.Delta) int {
	o := d.Overlay()
	d.AddNode("person")
	o = d.Overlay()
	return o.NumNodes()
}

// Mutating through a WAL fronting the same Delta stales the overlay too.
func staleThroughWAL(d *graph.Delta, buf *bytes.Buffer) []graph.NodeID {
	w := graph.NewWAL(buf, d)
	o := d.Overlay()
	w.AddEdge(1, 2, "knows")
	return o.OutByLabelID(1, 0) // want "uses a stale Overlay"
}

// A mutation anywhere in a loop body stales reads in the same body on the
// next iteration, regardless of lexical order.
func staleAcrossIterations(d *graph.Delta) int {
	o := d.Overlay()
	total := 0
	for i := 0; i < 3; i++ {
		total += o.NumNodes() // want "goes stale in this loop"
		d.AddNode("person")
	}
	return total
}

// Re-taking inside the loop keeps every read fresh.
func retakenInsideLoop(d *graph.Delta) int {
	total := 0
	for i := 0; i < 3; i++ {
		d.AddNode("person")
		o := d.Overlay()
		total += o.NumNodes()
	}
	return total
}

// Handing a stale overlay to any call counts as a read.
func passedWhileStale(d *graph.Delta) int {
	o := d.Overlay()
	d.RemoveNode(1)
	return sink(o) // want "passing o uses a stale Overlay"
}

// Delta/Base are meta accessors and stay valid on a stale overlay.
func metaAccessorsStayValid(d *graph.Delta) *graph.Delta {
	o := d.Overlay()
	d.AddNode("person")
	return o.Delta()
}

// Mutate first, take the overlay after: nothing stale.
func takenAfterMutation(d *graph.Delta) int {
	d.AddNode("person")
	o := d.Overlay()
	return o.NumNodes()
}

// Tests asserting the staleness panic are the one legitimate read-after-
// mutate shape; they suppress the finding with the reason inline.
func assertsThePanic(d *graph.Delta) {
	o := d.Overlay()
	d.AddNode("person")
	//gfdlint:allow overlaystale -- this exercises the staleness panic on purpose
	_ = o.NumNodes()
}
