package faultio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

func TestWriterFailAt(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{W: &buf, FailAt: 1}
	if _, err := w.Write([]byte("ab")); err != nil {
		t.Fatalf("op 0 should pass: %v", err)
	}
	if _, err := w.Write([]byte("cd")); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 1 should fail injected, got %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("ops after the fault must keep failing, got %v", err)
	}
	if got := buf.String(); got != "ab" {
		t.Fatalf("failed ops must deliver nothing: disk holds %q", got)
	}
	if w.Ops != 3 || !w.Failed {
		t.Fatalf("op accounting: Ops=%d Failed=%v", w.Ops, w.Failed)
	}
}

func TestWriterShort(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{W: &buf, FailAt: 0, Short: true}
	if _, err := w.Write([]byte("abcd")); !errors.Is(err, ErrInjected) {
		t.Fatal("short write must still report the fault")
	}
	if got := buf.String(); got != "ab" {
		t.Fatalf("short write should deliver half, disk holds %q", got)
	}
	// Only the first failing op is short; later ones deliver nothing.
	if _, err := w.Write([]byte("efgh")); !errors.Is(err, ErrInjected) {
		t.Fatal("second failing op must fail")
	}
	if got := buf.String(); got != "ab" {
		t.Fatalf("second failing op must deliver nothing, disk holds %q", got)
	}
}

// TestWriterAtSharesTheOpStream pins WriteAt as one op of the Writer's
// stream: it lands at its offset before FailAt, and the first failing one
// delivers half under Short.
func TestWriterAtSharesTheOpStream(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "w")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := &WriterAt{Writer{W: f, FailAt: 2, Short: true}}
	if _, err := w.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte("X"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte("YZ"), 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 2 should fail injected, got %v", err)
	}
	if _, err := w.WriteAt([]byte("Q"), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("ops after the fault must keep failing, got %v", err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aXYd" || w.Ops != 4 || !w.Failed {
		t.Fatalf("file holds %q after Ops=%d Failed=%v, want \"aXYd\"", got, w.Ops, w.Failed)
	}
}

func TestWriterNeverFails(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{W: &buf, FailAt: -1}
	if _, err := w.Write([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.Ops != 2 || w.Failed {
		t.Fatalf("counting run: Ops=%d Failed=%v", w.Ops, w.Failed)
	}
}

func TestReaderBudget(t *testing.T) {
	r := &Reader{R: strings.NewReader("abcdef"), Limit: 4}
	got, err := io.ReadAll(r)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("read past the budget must fail injected, got %v", err)
	}
	if string(got) != "abcd" {
		t.Fatalf("bytes within the budget must pass through, got %q", got)
	}
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatal("reads after the fault must keep failing")
	}
}

func TestReaderSourceEndsFirst(t *testing.T) {
	r := &Reader{R: strings.NewReader("ab"), Limit: 10}
	got, err := io.ReadAll(r)
	if err != nil || string(got) != "ab" {
		t.Fatalf("EOF inside the budget passes through: %q, %v", got, err)
	}
}
