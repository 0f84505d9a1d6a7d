package gfdio

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph/faultio"
)

// storeLitter returns the leftover .gfdsnap-* temp files in dir.
func storeLitter(t *testing.T, dir string) []string {
	t.Helper()
	litter, err := filepath.Glob(filepath.Join(dir, ".gfdsnap-*"))
	if err != nil {
		t.Fatal(err)
	}
	return litter
}

// TestWriteSnapshotAtomic pins the happy path: the image lands at the
// target, loads back, and leaves no temp file behind.
func TestWriteSnapshotAtomic(t *testing.T) {
	f, err := ReadFrozenGraph(strings.NewReader(sampleGraph))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "store.snap")
	if err := WriteSnapshotAtomic(path, f); err != nil {
		t.Fatalf("WriteSnapshotAtomic: %v", err)
	}
	img, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	loaded, err := ReadSnapshot(img)
	if err != nil {
		t.Fatalf("stored image does not load: %v", err)
	}
	if loaded.NumNodes() != f.NumNodes() || loaded.NumEdges() != f.NumEdges() {
		t.Fatalf("loaded %d/%d, want %d/%d", loaded.NumNodes(), loaded.NumEdges(), f.NumNodes(), f.NumEdges())
	}
	if litter := storeLitter(t, dir); len(litter) != 0 {
		t.Fatalf("temp files left behind: %v", litter)
	}
}

// failFirstWrite is a temp file whose first Write fails while every later
// Write and the Sync succeed: a transient fault the sweep below cannot model,
// since its disk never heals and so fails the Sync too.
type failFirstWrite struct {
	*os.File
	failed bool
}

func (w *failFirstWrite) Write(p []byte) (int, error) {
	if !w.failed {
		w.failed = true
		return 0, faultio.ErrInjected
	}
	return w.File.Write(p)
}

// TestWriteSnapshotAtomicFailedWriteThenSync pins that the image write's
// own error fails the store even when the Sync after it succeeds: the
// rewrite returns the injected error and the old image still loads.
func TestWriteSnapshotAtomicFailedWriteThenSync(t *testing.T) {
	oldG, err := ReadFrozenGraph(strings.NewReader("node 0 only\n"))
	if err != nil {
		t.Fatal(err)
	}
	newG, err := ReadFrozenGraph(strings.NewReader(sampleGraph))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.snap")
	if err := WriteSnapshotAtomic(path, oldG); err != nil {
		t.Fatal(err)
	}
	orig := storeDest
	defer func() { storeDest = orig }()
	storeDest = func(f *os.File) syncWriter { return &failFirstWrite{File: f} }
	if err := WriteSnapshotAtomic(path, newG); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("WriteSnapshotAtomic = %v, want the injected write fault", err)
	}
	img, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	loaded, err := ReadSnapshot(img)
	if err != nil || loaded.NumNodes() != oldG.NumNodes() {
		t.Fatalf("old store after the failed rewrite: err %v; want the old image to load", err)
	}
}

// TestWriteSnapshotAtomicFaultEveryOp is the store's crash/fault property:
// with a write or fsync failure injected at every op of the image stream
// (plus the torn half-write variant), the rewrite must fail with the
// injected error, the previous image at the path must survive byte-for-byte
// and still load, and no temp file may be left behind.
func TestWriteSnapshotAtomicFaultEveryOp(t *testing.T) {
	oldG, err := ReadFrozenGraph(strings.NewReader("node 0 only\n"))
	if err != nil {
		t.Fatal(err)
	}
	newG, err := ReadFrozenGraph(strings.NewReader(sampleGraph))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "store.snap")
	if err := WriteSnapshotAtomic(path, oldG); err != nil {
		t.Fatalf("seeding the old store: %v", err)
	}
	oldBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	orig := storeDest
	defer func() { storeDest = orig }()

	// Count the destination ops of a clean rewrite.
	var counting *faultio.Writer
	storeDest = func(f *os.File) syncWriter {
		counting = &faultio.Writer{W: f, FailAt: -1}
		return counting
	}
	if err := WriteSnapshotAtomic(path, newG); err != nil {
		t.Fatalf("counting rewrite: %v", err)
	}
	if counting == nil || counting.Ops == 0 {
		t.Fatal("counting rewrite saw no destination ops; sweep is vacuous")
	}
	// Reseed the old image so every sweep iteration overwrites the same state.
	if err := WriteSnapshotAtomic(path, oldG); err != nil {
		t.Fatal(err)
	}

	for failAt := 0; failAt < counting.Ops; failAt++ {
		for _, short := range []bool{false, true} {
			storeDest = func(f *os.File) syncWriter {
				return &faultio.Writer{W: f, FailAt: failAt, Short: short}
			}
			err := WriteSnapshotAtomic(path, newG)
			if !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("failAt=%d short=%v: WriteSnapshotAtomic = %v, want injected fault", failAt, short, err)
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("failAt=%d short=%v: old store unreadable: %v", failAt, short, rerr)
			}
			if string(got) != string(oldBytes) {
				t.Fatalf("failAt=%d short=%v: failed rewrite disturbed the old image (%d vs %d bytes)",
					failAt, short, len(got), len(oldBytes))
			}
			img, oerr := os.Open(path)
			if oerr != nil {
				t.Fatal(oerr)
			}
			loaded, lerr := ReadSnapshot(img)
			img.Close()
			if lerr != nil {
				t.Fatalf("failAt=%d short=%v: old store no longer loads: %v", failAt, short, lerr)
			}
			if loaded.NumNodes() != oldG.NumNodes() {
				t.Fatalf("failAt=%d short=%v: old store loads to the wrong graph", failAt, short)
			}
			if litter := storeLitter(t, dir); len(litter) != 0 {
				t.Fatalf("failAt=%d short=%v: temp files left behind: %v", failAt, short, litter)
			}
		}
	}

	// The seam restored, the rewrite goes through and the new image lands.
	storeDest = orig
	if err := WriteSnapshotAtomic(path, newG); err != nil {
		t.Fatalf("rewrite after the sweep: %v", err)
	}
	img, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	loaded, err := ReadSnapshot(img)
	if err != nil {
		t.Fatalf("new store does not load: %v", err)
	}
	if loaded.NumNodes() != newG.NumNodes() || loaded.NumEdges() != newG.NumEdges() {
		t.Fatal("new store loads to the wrong graph")
	}
}
