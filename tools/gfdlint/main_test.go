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
	got, err = selectAnalyzers(all, "mutatorerr", "")
	if err != nil || names(got) != "mutatorerr" {
		t.Fatalf("-only mutatorerr = %q, %v", names(got), err)
	}
	if _, err := selectAnalyzers(all, "nosuch", ""); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("-only with a typo must error, got %v", err)
	}
	if _, err := selectAnalyzers(all, "", "nosuch"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("-disable with a typo must error, got %v", err)
	}
	if _, err := selectAnalyzers(all, "", "mutatorerr"); err == nil || !strings.Contains(err.Error(), "no analyzers") {
		t.Fatalf("an empty selection must error, got %v", err)
	}

	// Over a longer suite: -only keeps suite order, and -only and -disable
	// compose, disable winning on the intersection.
	suite := []*lint.Analyzer{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	got, err = selectAnalyzers(suite, "c,a", "")
	if err != nil || names(got) != "a,c" {
		t.Fatalf("-only c,a = %q, %v; want a,c in suite order", names(got), err)
	}
	got, err = selectAnalyzers(suite, "a,b", "a")
	if err != nil || names(got) != "b" {
		t.Fatalf("composed selection = %q, %v; want b", names(got), err)
	}
}

func TestJSONFindings(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("a/b.go", -1, 100)
	f.AddLine(10)
	pos := f.Pos(15)
	findings := []lint.Finding{{
		Analyzer: analyzers.MutatorErr,
		Diag:     lint.Diagnostic{Pos: pos, Message: `dropped "error"`},
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
	if d["file"] != "a/b.go" || d["line"] != float64(2) || d["analyzer"] != "mutatorerr" {
		t.Fatalf("unexpected JSON fields: %v", d)
	}
	if d["message"] != `dropped "error"` {
		t.Fatalf("message not round-tripped: %q", d["message"])
	}

	// No findings still yields a valid (empty) array, not null.
	out, err = jsonFindings(fset, nil)
	if err != nil || strings.TrimSpace(string(out)) != "[]" {
		t.Fatalf("empty findings = %q, %v; want []", out, err)
	}
}
