package analyzers_test

import (
	"testing"

	"repro/tools/gfdlint/internal/analyzers"
	"repro/tools/gfdlint/internal/lint"
	"repro/tools/gfdlint/internal/linttest"
)

const fixtureDir = "testdata/src"

func TestMutatorErr(t *testing.T) {
	linttest.Run(t, fixtureDir, analyzers.MutatorErr, "mutatorerr")
}

// TestAllowAudit runs the audit alongside the analyzer whose findings the
// fixture's directives claim to suppress: the live suppression survives,
// the dead ones are reported.
func TestAllowAudit(t *testing.T) {
	linttest.RunSuite(t, fixtureDir,
		[]*lint.Analyzer{analyzers.MutatorErr, lint.AllowAudit}, "allowaudit")
}
