package gfdio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestSnapshotRoundTrip pins the gfdio snapshot path: text → frozen →
// binary image → frozen agrees with the text parse on the queries the check
// pipeline runs.
func TestSnapshotRoundTrip(t *testing.T) {
	f, err := ReadFrozenGraph(strings.NewReader(sampleGraph))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, f); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != f.NumNodes() || loaded.NumEdges() != f.NumEdges() {
		t.Fatalf("loaded %d/%d, want %d/%d", loaded.NumNodes(), loaded.NumEdges(), f.NumNodes(), f.NumEdges())
	}
	if v, ok := loaded.Attr(0, "name"); !ok || v != "alice" {
		t.Errorf("attr lost through the image: %q %v", v, ok)
	}
	if !graph.HasEdge(loaded, 0, 1, "knows") || graph.HasEdge(loaded, 1, 0, "knows") {
		t.Error("edges diverge through the image")
	}
}

// TestReadAnyGraph pins the format sniffing: the same loader accepts the
// text format and the binary image, and text output of both agrees.
func TestReadAnyGraph(t *testing.T) {
	fromText, err := ReadAnyGraph(strings.NewReader(sampleGraph))
	if err != nil {
		t.Fatalf("text via ReadAnyGraph: %v", err)
	}
	var img bytes.Buffer
	if err := WriteSnapshot(&img, fromText); err != nil {
		t.Fatal(err)
	}
	fromImage, err := ReadAnyGraph(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatalf("image via ReadAnyGraph: %v", err)
	}
	var a, b bytes.Buffer
	if err := WriteGraph(&a, fromText); err != nil {
		t.Fatal(err)
	}
	if err := WriteGraph(&b, fromImage); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("text renderings diverge:\n%s\nvs\n%s", a.String(), b.String())
	}
	empty, err := ReadAnyGraph(strings.NewReader(""))
	if err != nil {
		t.Fatalf("empty input should parse as an empty text graph: %v", err)
	}
	if empty.NumNodes() != 0 {
		t.Error("empty input produced nodes")
	}
}
