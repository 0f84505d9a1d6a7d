package analyzers_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/tools/gfdlint/internal/analyzers"
	"repro/tools/gfdlint/internal/lint"
	"repro/tools/gfdlint/internal/linttest"
	"repro/tools/gfdlint/internal/load"
)

const fixtureDir = "testdata/src"

// withHotPkgs points HotAlloc at the fixture packages for one test.
func withHotPkgs(t *testing.T, pkgs string) {
	old := analyzers.HotPkgs
	analyzers.HotPkgs = pkgs
	t.Cleanup(func() { analyzers.HotPkgs = old })
}

func TestHotAlloc(t *testing.T) {
	withHotPkgs(t, "*")
	linttest.Run(t, fixtureDir, analyzers.HotAlloc, "hotalloc")
}

func TestMutatorErr(t *testing.T) {
	linttest.Run(t, fixtureDir, analyzers.MutatorErr, "mutatorerr")
}

func TestOverlayStale(t *testing.T) {
	linttest.Run(t, fixtureDir, analyzers.OverlayStale, "overlaystale")
}

func TestEpochFlow(t *testing.T) {
	linttest.Run(t, fixtureDir, analyzers.EpochFlow, "epochflow")
}

// withCtxPkgs points CtxPoll at the fixture packages for one test.
func withCtxPkgs(t *testing.T, pkgs string) {
	old := analyzers.CtxPkgs
	analyzers.CtxPkgs = pkgs
	t.Cleanup(func() { analyzers.CtxPkgs = old })
}

func TestCtxPoll(t *testing.T) {
	withCtxPkgs(t, "*")
	linttest.Run(t, fixtureDir, analyzers.CtxPoll, "ctxpoll")
}

// withGoroPkgs points GoroIsolate at the fixture packages for one test.
func withGoroPkgs(t *testing.T, pkgs string) {
	old := analyzers.GoroPkgs
	analyzers.GoroPkgs = pkgs
	t.Cleanup(func() { analyzers.GoroPkgs = old })
}

func TestGoroIsolate(t *testing.T) {
	withGoroPkgs(t, "*")
	linttest.Run(t, fixtureDir, analyzers.GoroIsolate, "goroisolate")
}

func TestLockDiscipline(t *testing.T) {
	linttest.Run(t, fixtureDir, analyzers.LockDiscipline, "lockdiscipline")
}

// TestAllowAudit runs the audit alongside the analyzer whose findings the
// fixture's directives claim to suppress: the live suppression survives,
// the dead ones are reported.
func TestAllowAudit(t *testing.T) {
	linttest.RunSuite(t, fixtureDir,
		[]*lint.Analyzer{analyzers.OverlayStale, lint.AllowAudit}, "allowaudit")
}

// TestHotAllocFix applies the mechanical suggested fix for the plain-
// reassignment shape and compares the rewrite against fix.go.golden.
func TestHotAllocFix(t *testing.T) {
	withHotPkgs(t, "*")
	findings, fset := linttest.Run(t, fixtureDir, analyzers.HotAlloc, "hotallocfix")

	var fixable []lint.Finding
	for _, f := range findings {
		if len(f.Diag.SuggestedFixes) > 0 {
			fixable = append(fixable, f)
		}
	}
	if len(fixable) != 1 {
		t.Fatalf("want exactly 1 fixable finding (the plain-assign shape), got %d", len(fixable))
	}
	fixed, err := lint.ApplyFixes(fset, fixable, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 1 {
		t.Fatalf("fix touched %d files, want 1", len(fixed))
	}
	golden, err := os.ReadFile(filepath.Join(fixtureDir, "hotallocfix", "fix.go.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range fixed {
		if filepath.Base(name) != "fix.go" {
			t.Fatalf("fix rewrote %s, want fix.go", name)
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("fixed output differs from fix.go.golden:\n%s", got)
		}
	}
}

// copyTree copies the named entries of a fixture tree into dst, preserving
// relative layout.
func copyTree(t *testing.T, src, dst string, entries ...string) {
	t.Helper()
	for _, e := range entries {
		err := filepath.WalkDir(filepath.Join(src, e), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(src, p)
			if err != nil {
				return err
			}
			target := filepath.Join(dst, rel)
			if d.IsDir() {
				return os.MkdirAll(target, 0o755)
			}
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(target, b, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestHotAllocFixIdempotent pins that -fix converges in one application:
// running hotalloc over the already-fixed golden output yields no further
// fixable findings, so a second -fix pass would rewrite nothing.
func TestHotAllocFixIdempotent(t *testing.T) {
	withHotPkgs(t, "*")
	tmp := t.TempDir()
	copyTree(t, fixtureDir, tmp, "go.mod", "graph", "hotallocfix")
	golden, err := os.ReadFile(filepath.Join(fixtureDir, "hotallocfix", "fix.go.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "hotallocfix", "fix.go"), golden, 0o644); err != nil {
		t.Fatal(err)
	}

	pkgs, err := load.Load(load.Config{Dir: tmp, Env: []string{"GOWORK=off"}}, "./hotallocfix")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("fixed fixture matched no packages")
	}
	var findings []lint.Finding
	for _, p := range pkgs {
		findings = append(findings, lint.RunAnalyzers(p.Fset, p.Files, p.Types, p.Info, []*lint.Analyzer{analyzers.HotAlloc})...)
	}
	// The := shape stays flagged (it needs a hand-hoisted buffer) but the
	// rewritten AppendCandidates line must be clean and nothing fixable may
	// remain.
	if len(findings) != 1 {
		t.Fatalf("fixed output has %d findings, want only the non-fixable := shape", len(findings))
	}
	for _, f := range findings {
		if len(f.Diag.SuggestedFixes) > 0 {
			t.Errorf("fixed output still offers a fix at %s: %s", f.Position(pkgs[0].Fset), f.Diag.Message)
		}
	}
}
