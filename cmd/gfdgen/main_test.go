package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gfdio"
)

// gfdgen runs one invocation in process and returns its exit code and both
// streams.
func gfdgen(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestOutOfRangeInputIsAUsageError: each of these used to exit 0 — -n -5
// wrote 100 rules, -k 0 and -l -1 fell back to defaults, -wildcard 2 wrote
// all-wildcard patterns, and the stray argument was ignored.
func TestOutOfRangeInputIsAUsageError(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-n", "-5"},
		{"-n", "0"},
		{"-k", "0"},
		{"-l", "-1"},
		{"-conflicts", "-3"},
		{"-wildcard", "2"},
		{"-wildcard", "-1"},
		{"-wildcard", "NaN"},
		{"-profile", "nosuch"},
		{"-target-o", filepath.Join(dir, "phi.gfd")},
		{"stray"},
		{"-n", "10", "stray"},
		{"-nosuchflag"},
	} {
		path := filepath.Join(dir, "sigma.gfd")
		code, stdout, errs := gfdgen(append([]string{"-o", path}, args...)...)
		if code != 2 || stdout != "" || !strings.Contains(errs, "usage: gfdgen") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, nothing written, a usage line", args, code, stdout, errs)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%v: wrote %s before refusing its input", args, path)
			os.Remove(path)
		}
	}
}

func TestDefaultFlagsWriteAParseableSet(t *testing.T) {
	code, stdout, errs := gfdgen()
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	set, err := gfdio.ReadGFDs(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("output does not parse back: %v", err)
	}
	if set.Len() != 100 {
		t.Errorf("default run wrote %d GFDs, want 100", set.Len())
	}
	// -wildcard 0 is the generator's default rate, as the usage text says.
	if _, zero, _ := gfdgen("-wildcard", "0"); zero != stdout {
		t.Error("-wildcard 0 differs from the default -wildcard 0.1")
	}
}

func TestImpTargetWritesSigmaAndOneTarget(t *testing.T) {
	dir := t.TempDir()
	sigma, target := filepath.Join(dir, "sigma.gfd"), filepath.Join(dir, "phi.gfd")
	code, stdout, errs := gfdgen("-n", "40", "-imp-target", "-o", sigma, "-target-o", target)
	if code != 0 || stdout != "" || errs != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 0 and both sets in their files", code, stdout, errs)
	}
	read := func(path string) int {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		set, err := gfdio.ReadGFDs(f)
		if err != nil {
			t.Fatalf("%s does not parse back: %v", path, err)
		}
		return set.Len()
	}
	if n := read(sigma); n != 40 {
		t.Errorf("Σ file holds %d GFDs, want the 40 asked for", n)
	}
	if n := read(target); n != 1 {
		t.Errorf("target file holds %d GFDs, want 1", n)
	}
}

func TestUnwritableOutputFails(t *testing.T) {
	code, stdout, errs := gfdgen("-o", filepath.Join(t.TempDir(), "missing", "sigma.gfd"))
	if code != 2 || stdout != "" || errs == "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2 and the create error", code, stdout, errs)
	}
}
