package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/graph/faultio"
)

// streamFixture returns a snapshot whose payload spans several windows:
// thousands of nodes and edges, tombstones, and one attribute value longer
// than a window, its bytes varied so a misplaced window shows.
func streamFixture() *Frozen {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(0)
	for v := range 3000 {
		b.SetAttr(b.AddNode([]string{"a", "b", "c"}[v%3]), "k", strconv.Itoa(rng.Intn(100)))
	}
	long := make([]byte, snapWindow+1000)
	for i := range long {
		long[i] = 'a' + byte(i%26)
	}
	b.SetAttr(7, "long", string(long))
	for range 20000 {
		b.AddEdge(NodeID(rng.Intn(3000)), NodeID(rng.Intn(3000)), []string{"e", "f"}[rng.Intn(2)])
	}
	d := NewDelta(b.Freeze())
	d.RemoveNode(11)
	d.RemoveNode(2999)
	return d.Overlay()
}

// streamImages returns the buffered image of every graph the round-trip
// property uses, and of streamFixture.
func streamImages(t *testing.T) [][]byte {
	var imgs [][]byte
	for seed := int64(0); seed < 8; seed++ {
		_, f := snapshotFixture(t, seed)
		imgs = append(imgs, snapshotImage(t, f))
	}
	return append(imgs, snapshotImage(t, streamFixture()))
}

// TestSnapshotStreamReaders loads every image through readers that hand out
// one byte, half of what is asked, or the data with io.EOF: each must load
// the graph a bytes.Reader loads, which writes back the same image.
func TestSnapshotStreamReaders(t *testing.T) {
	imgs := streamImages(t)
	if len(imgs[8]) < 4*snapWindow {
		t.Fatal("streamFixture's image fits in a few windows; the sweep is vacuous")
	}
	for i, img := range imgs {
		for name, r := range map[string]io.Reader{
			"bytes":    bytes.NewReader(img),
			"one-byte": iotest.OneByteReader(bytes.NewReader(img)),
			"half":     iotest.HalfReader(bytes.NewReader(img)),
			"data-err": iotest.DataErrReader(bytes.NewReader(img)),
		} {
			g, err := ReadSnapshot(r)
			if err != nil {
				t.Fatalf("image %d through %s: %v", i, name, err)
			}
			if !bytes.Equal(snapshotImage(t, g), img) {
				t.Fatalf("image %d through %s loads another graph", i, name)
			}
		}
	}
}

// TestSnapshotStreamWindowEdges sweeps a short string, its length and the
// fields around it across the end of the first window, one byte at a
// time: every image must load back to itself.
func TestSnapshotStreamWindowEdges(t *testing.T) {
	for n := snapWindow - 120; n < snapWindow-40; n++ {
		b := NewBuilder(0)
		x, y := b.AddNode("a"), b.AddNode("b")
		b.SetAttr(x, "k", strings.Repeat("x", n))
		b.SetAttr(y, "k", "0123456789abcdefghij")
		b.AddEdge(x, y, "e")
		img := snapshotImage(t, b.Freeze())
		g, err := ReadSnapshot(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("value of %d bytes: %v", n, err)
		}
		if !bytes.Equal(snapshotImage(t, g), img) {
			t.Fatalf("value of %d bytes: the image loads another graph", n)
		}
	}
}

// writeFile writes f's image to a new file in dir, streamed, and returns
// its bytes.
func writeFile(t *testing.T, dir string, f *Frozen) []byte {
	t.Helper()
	file, err := os.CreateTemp(dir, "snap")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if err := f.WriteSnapshot(file); err != nil {
		t.Fatalf("streamed WriteSnapshot: %v", err)
	}
	img, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSnapshotStreamedWriteMatchesBuffered holds the two sinks to one
// image: a file (streamed, its header patched in last) and a bytes.Buffer
// (buffered) receive the same bytes, also from a file written past its
// start, whose earlier bytes stay as they were, and from a file opened to
// append, which refuses WriteAt and so takes the buffered image.
func TestSnapshotStreamedWriteMatchesBuffered(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(0); seed < 8; seed++ {
		_, f := snapshotFixture(t, seed)
		if !bytes.Equal(writeFile(t, dir, f), snapshotImage(t, f)) {
			t.Fatalf("seed=%d: the streamed image differs from the buffered one", seed)
		}
	}
	f := streamFixture()
	want := snapshotImage(t, f)
	if !bytes.Equal(writeFile(t, dir, f), want) {
		t.Fatal("streamFixture: the streamed image differs from the buffered one")
	}

	file, err := os.Create(filepath.Join(dir, "offset"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if _, err := file.WriteString("prefix"); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteSnapshot(file); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(file.Name()); err != nil || string(got) != "prefix"+string(want) {
		t.Fatalf("an image written after a prefix: err %v, %d bytes, want the prefix and the image", err, len(got))
	}

	appended, err := os.OpenFile(file.Name(), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer appended.Close()
	if err := f.WriteSnapshot(appended); err != nil {
		t.Fatalf("WriteSnapshot to a file opened to append: %v", err)
	}
	if got, err := os.ReadFile(file.Name()); err != nil || string(got) != "prefix"+string(want)+string(want) {
		t.Fatalf("an image appended to a file: err %v, %d bytes, want the prefix and the image twice", err, len(got))
	}
}

// TestSnapshotStreamWriteAllocs pins that a streamed write holds a window,
// not the payload: writing a payload of many windows to a file allocates
// less than half of it, the window grown once for the long value included.
func TestSnapshotStreamWriteAllocs(t *testing.T) {
	f := streamFixture()
	file, err := os.CreateTemp(t.TempDir(), "snap")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f.WriteSnapshot(file); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(f.payloadSize())/2 {
		t.Fatalf("streamed write of a %d-byte payload allocated %d bytes", f.payloadSize(), alloc)
	}
}

// TestSnapshotStreamWriteFaultEveryOp fails every op of a streamed write to
// a file (the placeholder header, each window of the payload, the header
// patch), wholly and torn: the injected error must surface, and the file
// must never load as a snapshot.
func TestSnapshotStreamWriteFaultEveryOp(t *testing.T) {
	f, dir := streamFixture(), t.TempDir()
	run := func(failAt int, short bool) (*faultio.WriterAt, []byte, error) {
		file, err := os.CreateTemp(dir, "snap")
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		w := &faultio.WriterAt{Writer: faultio.Writer{W: file, FailAt: failAt, Short: short}}
		werr := f.WriteSnapshot(w)
		img, err := os.ReadFile(file.Name())
		if err != nil {
			t.Fatal(err)
		}
		return w, img, werr
	}
	counting, img, err := run(-1, false)
	if err != nil {
		t.Fatalf("counting run: %v", err)
	}
	if !bytes.Equal(img, snapshotImage(t, f)) {
		t.Fatal("the image written through faultio.WriterAt differs from the buffered one")
	}
	if counting.Ops < 4 {
		t.Fatalf("%d ops for a payload of %d bytes; the write did not stream", counting.Ops, f.payloadSize())
	}
	for failAt := 0; failAt < counting.Ops; failAt++ {
		for _, short := range []bool{false, true} {
			_, img, err := run(failAt, short)
			if !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("failAt=%d short=%v: WriteSnapshot = %v, want injected fault", failAt, short, err)
			}
			if _, rerr := ReadSnapshot(bytes.NewReader(img)); rerr == nil {
				t.Fatalf("failAt=%d short=%v: torn %d-byte image loaded as a valid snapshot", failAt, short, len(img))
			}
		}
	}
}

// failOneWrite is a file whose Write number at (from 0) fails while every
// other Write and WriteAt goes through: a transient fault, which the sticky
// faultio.Writer cannot model.
type failOneWrite struct {
	*os.File
	at, writes int
}

func (w *failOneWrite) Write(p []byte) (int, error) {
	if w.writes++; w.writes-1 == w.at {
		return 0, faultio.ErrInjected
	}
	return w.File.Write(p)
}

// TestSnapshotStreamTransientWriteFault fails one write of a streamed image
// at a time, the placeholder header's or a window's: WriteSnapshot must
// return the error even though the writes after it, and the header patch,
// go through.
func TestSnapshotStreamTransientWriteFault(t *testing.T) {
	f, dir := streamFixture(), t.TempDir()
	run := func(at int) (int, error) {
		file, err := os.CreateTemp(dir, "snap")
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		w := &failOneWrite{File: file, at: at}
		err = f.WriteSnapshot(w)
		return w.writes, err
	}
	writes, err := run(-1)
	if err != nil || writes < 3 {
		t.Fatalf("counting run: %d writes, %v; want a streamed image", writes, err)
	}
	for at := 0; at < writes; at++ {
		if _, err := run(at); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("write %d of %d failed, WriteSnapshot = %v", at, writes, err)
		}
	}
}

// forgedHeader returns a header whose checksum holds for a payload of plen
// bytes.
func forgedHeader(plen uint64) []byte {
	h := make([]byte, 28)
	copy(h, snapshotMagic[:])
	binary.LittleEndian.PutUint32(h[8:], snapshotVersion)
	binary.LittleEndian.PutUint64(h[12:], plen)
	binary.LittleEndian.PutUint32(h[24:], crc32.ChecksumIEEE(h[:24]))
	return h
}

// TestSnapshotStreamSizedSourceRejectsLongPayload forges images whose header
// claims a 2^36-byte payload: the header alone, and one whose first bytes
// claim 2^26 nodes and node labels, followed by more than a window of
// zeros. A file, a bytes.Reader and a strings.Reader know they hold less,
// so each load fails with a read error before anything is sized by the
// claims.
func TestSnapshotStreamSizedSourceRejectsLongPayload(t *testing.T) {
	claims := binary.LittleEndian.AppendUint32(make([]byte, 8), 1<<26)
	claims = binary.LittleEndian.AppendUint64(claims, 1<<26)
	claims = append(claims, make([]byte, 2*snapWindow)...)
	dir := t.TempDir()
	for _, img := range [][]byte{forgedHeader(1 << 36), append(forgedHeader(1<<36), claims...)} {
		path := filepath.Join(dir, "big.snap")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		for name, r := range map[string]io.Reader{
			"file":           file,
			"bytes.Reader":   bytes.NewReader(img),
			"strings.Reader": strings.NewReader(string(img)),
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadSnapshot(r)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "read payload") ||
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%d-byte image from a %s: %v, want a read-payload error", len(img), name, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("%d-byte image from a %s: allocated %d bytes before failing", len(img), name, alloc)
			}
		}
	}
}

// TestSnapshotStreamReadPrecedence pins the order in which a load fails
// when an image has more than one fault: a read error before a checksum
// mismatch, that before a structural error, that before trailing bytes.
func TestSnapshotStreamReadPrecedence(t *testing.T) {
	img := snapshotImage(t, streamFixture())
	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[12:], uint64(len(b)-28))
		binary.LittleEndian.PutUint32(b[20:], crc32.ChecksumIEEE(b[28:]))
		binary.LittleEndian.PutUint32(b[24:], crc32.ChecksumIEEE(b[:24]))
		return b
	}
	// A node-label count of 2^32-1 is a structural error at the payload's
	// first bytes; a trailing byte follows the payload.
	bad := reseal(append(append([]byte(nil), img...), 0))
	binary.LittleEndian.PutUint32(bad[28:], ^uint32(0))
	want := map[string][]byte{
		"trailing bytes":    reseal(append(append([]byte(nil), img...), 0)),
		"exceeds remaining": reseal(append([]byte(nil), bad...)),
		"checksum mismatch": bad,
		"read payload":      bad[:len(bad)-1],
	}
	for msg, b := range want {
		_, err := ReadSnapshot(iotest.HalfReader(bytes.NewReader(b)))
		if err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("want an error naming %q, got %v", msg, err)
		}
	}
}
