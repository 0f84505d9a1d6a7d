package main

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"repro/tools/gfdlint/internal/analyzers"
	"repro/tools/gfdlint/internal/lint"
)

func names(as []*lint.Analyzer) string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return strings.Join(out, ",")
}

func TestSelectAnalyzers(t *testing.T) {
	all := analyzers.All()

	got, err := selectAnalyzers(all, "", "")
	if err != nil || len(got) != len(all) {
		t.Fatalf("empty selection = %d analyzers, %v; want all %d", len(got), err, len(all))
	}

	got, err = selectAnalyzers(all, "ctxpoll,epochflow", "")
	if err != nil || names(got) != "epochflow,ctxpoll" {
		t.Fatalf("-only = %q, %v; want epochflow,ctxpoll in suite order", names(got), err)
	}

	got, err = selectAnalyzers(all, "", "hotalloc")
	if err != nil || strings.Contains(names(got), "hotalloc") || len(got) != len(all)-1 {
		t.Fatalf("-disable hotalloc = %q, %v", names(got), err)
	}

	// -only and -disable compose: disable wins on the intersection.
	got, err = selectAnalyzers(all, "hotalloc,ctxpoll", "hotalloc")
	if err != nil || names(got) != "ctxpoll" {
		t.Fatalf("composed selection = %q, %v; want ctxpoll", names(got), err)
	}

	if _, err := selectAnalyzers(all, "nosuch", ""); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("-only with a typo must error, got %v", err)
	}
	if _, err := selectAnalyzers(all, "", "nosuch"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("-disable with a typo must error, got %v", err)
	}
	if _, err := selectAnalyzers(all, "hotalloc", "hotalloc"); err == nil || !strings.Contains(err.Error(), "no analyzers") {
		t.Fatalf("an empty selection must error, got %v", err)
	}
}

func TestJSONFindings(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("a/b.go", -1, 100)
	f.AddLine(10)
	pos := f.Pos(15)
	findings := []lint.Finding{{
		Analyzer: analyzers.OverlayStale,
		Diag:     lint.Diagnostic{Pos: pos, Message: `stale "overlay"`},
	}}
	out, err := jsonFindings(fset, findings)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d findings, want 1", len(decoded))
	}
	d := decoded[0]
	if d["file"] != "a/b.go" || d["line"] != float64(2) || d["analyzer"] != "overlaystale" {
		t.Fatalf("unexpected JSON fields: %v", d)
	}
	if d["message"] != `stale "overlay"` {
		t.Fatalf("message not round-tripped: %q", d["message"])
	}

	// No findings still yields a valid (empty) array, not null.
	out, err = jsonFindings(fset, nil)
	if err != nil || strings.TrimSpace(string(out)) != "[]" {
		t.Fatalf("empty findings = %q, %v; want []", out, err)
	}
}
