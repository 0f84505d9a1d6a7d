// Command gfdlint is the project's static-analysis gate: a multichecker of
// the project-specific analyzers that catch a bug nothing else does — no
// test, go vet or staticcheck (DESIGN.md, "Enforced invariants"). Today
// that is mutatorerr: a dropped error from the graph/gfdio persistence
// APIs. Stdlib-only by design — see go.mod — so it runs in hermetic
// environments:
//
//	go run ./tools/gfdlint ./...                    # lint the root module
//	go run ./tools/gfdlint repro/tools/gfdlint/...  # lint the linter
//	go run ./tools/gfdlint -list                    # name each analyzer
//
// Suppress a finding with a trailing or preceding comment:
//
//	//gfdlint:allow mutatorerr -- the log is abandoned; nothing reads its error
//
// Exit status: 0 clean, 1 findings remain, 2 usage/load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"

	"repro/tools/gfdlint/internal/analyzers"
	"repro/tools/gfdlint/internal/lint"
	"repro/tools/gfdlint/internal/load"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		tests   = flag.Bool("tests", true, "also analyze _test.go files")
		only    = flag.String("only", "", "comma-separated analyzer names to run exclusively")
		disable = flag.String("disable", "", "comma-separated analyzer names to skip")
		list    = flag.Bool("list", false, "list analyzers and exit")
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array on stdout")
	)
	flag.Parse()

	all := analyzers.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	enabled, err := selectAnalyzers(all, *only, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gfdlint:", err)
		return 2
	}
	if *only == "" && *disable == "" {
		// The unused-suppression audit only makes sense against the full
		// suite: a directive for a filtered-out analyzer would look dead.
		enabled = append(enabled, lint.AllowAudit)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(load.Config{Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gfdlint:", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "gfdlint: no packages matched")
		return 2
	}

	fset := pkgs[0].Fset
	var findings []lint.Finding
	for _, p := range pkgs {
		findings = append(findings, lint.RunAnalyzers(p.Fset, p.Files, p.Info, enabled)...)
	}
	if len(findings) == 0 {
		return 0
	}

	if *jsonOut {
		out, err := jsonFindings(fset, findings)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gfdlint: -json:", err)
			return 2
		}
		os.Stdout.Write(out)
	} else {
		printFindings(fset, findings)
	}
	fmt.Fprintf(os.Stderr, "gfdlint: %d finding(s)\n", len(findings))
	return 1
}

// selectAnalyzers applies the -only and -disable name lists to the full
// analyzer set, rejecting unknown names (a typo must not silently run — or
// silently skip — the wrong checks) and empty selections.
func selectAnalyzers(all []*lint.Analyzer, only, disable string) ([]*lint.Analyzer, error) {
	parse := func(flagName, csv string) (map[string]bool, error) {
		set := map[string]bool{}
		for _, n := range strings.Split(csv, ",") {
			if n = strings.TrimSpace(n); n != "" {
				set[n] = true
			}
		}
		for n := range set {
			known := false
			for _, a := range all {
				if a.Name == n {
					known = true
					break
				}
			}
			if !known {
				return nil, fmt.Errorf("-%s: unknown analyzer %q (see -list)", flagName, n)
			}
		}
		return set, nil
	}
	onlySet, err := parse("only", only)
	if err != nil {
		return nil, err
	}
	disableSet, err := parse("disable", disable)
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if len(onlySet) > 0 && !onlySet[a.Name] {
			continue
		}
		if disableSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("selection leaves no analyzers enabled")
	}
	return out, nil
}

// jsonFinding is the machine-readable shape of one finding; the field names
// are stable output surface.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

func jsonFindings(fset *token.FileSet, findings []lint.Finding) ([]byte, error) {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		pos := f.Position(fset)
		out = append(out, jsonFinding{
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Message:  f.Diag.Message,
			Analyzer: f.Analyzer.Name,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func printFindings(fset *token.FileSet, findings []lint.Finding) {
	for _, f := range findings {
		fmt.Printf("%s: %s [%s]\n", f.Position(fset), f.Diag.Message, f.Analyzer.Name)
	}
}
