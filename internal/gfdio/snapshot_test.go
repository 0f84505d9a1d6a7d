package gfdio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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
	// A source that cannot read at offsets is sniffed through a buffer.
	if piped, err := ReadAnyGraph(io.MultiReader(bytes.NewReader(img.Bytes()))); err != nil || piped.NumEdges() != fromImage.NumEdges() {
		t.Fatalf("image via ReadAnyGraph from a pipe: %v", err)
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

// TestReadAnyGraphForgedPayloadLength feeds ReadAnyGraph a 28-byte image
// file whose header, checksum and all, claims a 2^36-byte payload: the file
// knows its size, so the load fails with a read error instead of sizing
// anything by the claim.
func TestReadAnyGraphForgedPayloadLength(t *testing.T) {
	img := []byte("GFDSNAP1\x01\x00\x00\x00")
	img = binary.LittleEndian.AppendUint64(img, 1<<36)
	img = binary.LittleEndian.AppendUint32(img, 0)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img))
	path := filepath.Join(t.TempDir(), "big.snap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadAnyGraph(f); err == nil || !strings.Contains(err.Error(), "read payload") {
		t.Fatalf("ReadAnyGraph of a forged 28-byte image: %v, want a read-payload error", err)
	}
}
