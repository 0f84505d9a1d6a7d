package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gfdio"
	"repro/internal/graph"
)

// bin is the gfdreason binary TestMain builds once for every test here.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gfdreason-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "gfdreason")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// Inputs small enough to decide by eye.
const (
	// Every n node gets k = 1: satisfiable.
	sigmaSat = "gfd one\nvar x n\nthen x.k = \"1\"\nend\n"
	// ... and k = 2 as well: the two rules conflict on x.k.
	sigmaUnsat = sigmaSat + "gfd two\nvar x n\nthen x.k = \"2\"\nend\n"
	// Follows from sigmaSat; nothing in sigmaSat speaks about x.j.
	targetImplied    = "gfd t\nvar x n\nthen x.k = \"1\"\nend\n"
	targetNotImplied = "gfd t\nvar x n\nthen x.j = \"1\"\nend\n"
	graphClean       = "node 0 n k=1\nnode 1 m k=7\n"
	graphDirty       = "node 0 n k=1\nnode 1 n k=7\n"
	sigmaDupVar      = "gfd g\nvar x a\nvar x b\nend\n"
	sigmaNoVars      = "gfd g\nend\n"
)

// gfdreason runs the built binary and returns stdout, stderr and the exit
// code.
func gfdreason(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("gfdreason %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func write(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// engines are the flag sets selecting each sat/imp engine configuration.
var engines = [][]string{{"-p", "1"}, {"-p", "4"}, {"-seq"}}

// argv assembles "cmd engine-flags files...".
func argv(cmd string, eng []string, files ...string) []string {
	return append(append([]string{cmd}, eng...), files...)
}

func TestSat(t *testing.T) {
	sat, unsat := write(t, sigmaSat), write(t, sigmaUnsat)
	for _, eng := range engines {
		out, _, code := gfdreason(t, argv("sat", eng, sat)...)
		if code != 0 || out != "SATISFIABLE\n" {
			t.Errorf("sat %v: exit %d, stdout %q; want 0, SATISFIABLE", eng, code, out)
		}
		out, _, code = gfdreason(t, argv("sat", eng, unsat)...)
		if code != 1 || !strings.HasPrefix(out, "UNSATISFIABLE: ") || !strings.Contains(out, "k") {
			t.Errorf("sat %v on the conflicting set: exit %d, stdout %q; want 1, UNSATISFIABLE naming attribute k", eng, code, out)
		}
	}
}

func TestImp(t *testing.T) {
	sigma, yes, no := write(t, sigmaSat), write(t, targetImplied), write(t, targetNotImplied)
	for _, eng := range append(engines, []string{"-baseline"}) {
		out, _, code := gfdreason(t, argv("imp", eng, sigma, yes)...)
		if code != 0 || !strings.HasPrefix(out, "IMPLIED (") {
			t.Errorf("imp %v: exit %d, stdout %q; want 0, IMPLIED", eng, code, out)
		}
		out, _, code = gfdreason(t, argv("imp", eng, sigma, no)...)
		if code != 1 || out != "NOT-IMPLIED\n" {
			t.Errorf("imp %v on the unrelated target: exit %d, stdout %q; want 1, NOT-IMPLIED", eng, code, out)
		}
	}
}

func TestCheck(t *testing.T) {
	sigma := write(t, sigmaSat)
	out, _, code := gfdreason(t, "check", sigma, write(t, graphClean))
	if code != 0 || !strings.HasPrefix(out, "CLEAN") {
		t.Errorf("check on the clean graph: exit %d, stdout %q; want 0, CLEAN", code, out)
	}
	out, _, code = gfdreason(t, "check", sigma, write(t, graphDirty))
	if code != 1 || out != "violation of one at [1]\n" {
		t.Errorf("check on the dirty graph: exit %d, stdout %q; want 1 and the violation at node 1", code, out)
	}
}

// TestMalformedSigma pins that outside input the parser must refuse — a
// repeated variable name, a pattern with no variables — is a one-line parse
// error with exit 2 on every engine, never a goroutine trace. imp reads Σ
// through its target's filter, and a block the filter drops is refused all
// the same; a bad Σ is reported before a bad target, as it was when Σ was
// read first.
func TestMalformedSigma(t *testing.T) {
	target := write(t, targetImplied) // over label n: Σ′ holds no block over a or b
	for name, content := range map[string]string{"duplicate var": sigmaDupVar, "no variables": sigmaNoVars} {
		path := write(t, content)
		parseErr := func(cmd string, eng []string, errOut string) {
			t.Helper()
			if !strings.HasPrefix(errOut, "parse "+path+": ") || strings.Count(errOut, "\n") != 1 || strings.Contains(errOut, "goroutine") {
				t.Errorf("%s, %s %v: stderr %q; want one \"parse %s: ...\" line", name, cmd, eng, errOut, path)
			}
		}
		for _, eng := range engines {
			out, errOut, code := gfdreason(t, argv("sat", eng, path)...)
			if code != 2 || out != "" {
				t.Errorf("%s, sat %v: exit %d, stdout %q; want 2 and no verdict", name, eng, code, out)
			}
			parseErr("sat", eng, errOut)
		}
		for _, eng := range append(engines, []string{"-baseline"}) {
			for tname, tpath := range map[string]string{
				"a target": target, "a malformed target": write(t, sigmaDupVar),
				"a two-GFD target": write(t, targetImplied+targetNotImplied), "a missing target": filepath.Join(t.TempDir(), "none"),
			} {
				out, errOut, code := gfdreason(t, argv("imp", eng, path, tpath)...)
				if code != 2 || out != "" {
					t.Errorf("%s, imp %v with %s: exit %d, stdout %q; want 2 and no verdict", name, eng, tname, code, out)
				}
				parseErr("imp "+tname, eng, errOut)
			}
		}
	}
}

// TestBadTarget pins what imp says about a target that is not one GFD, on
// every engine: the parse error names the target file, and a file of two
// GFDs gets the message it got before Σ was filtered by the target.
func TestBadTarget(t *testing.T) {
	sigma, bad, two := write(t, sigmaSat), write(t, sigmaNoVars), write(t, targetImplied+targetNotImplied)
	for _, eng := range append(engines, []string{"-baseline"}) {
		out, errOut, code := gfdreason(t, argv("imp", eng, sigma, bad)...)
		if code != 2 || out != "" || errOut != "parse "+bad+": line 2: gfd g: pattern has no variables\n" {
			t.Errorf("imp %v with a malformed target: exit %d, stdout %q, stderr %q; want 2 and the target's parse error", eng, code, out, errOut)
		}
		out, errOut, code = gfdreason(t, argv("imp", eng, sigma, two)...)
		if code != 2 || out != "" || errOut != "target file must contain exactly one GFD, got 2\n" {
			t.Errorf("imp %v with a two-GFD target: exit %d, stdout %q, stderr %q; want 2 and the one-GFD message", eng, code, out, errOut)
		}
	}
}

// TestTimeout: an expired -timeout exits 3 with no verdict. -seq is -p 1,
// so it bounds a sequential run as it does any other.
func TestTimeout(t *testing.T) {
	sigma, target := write(t, sigmaSat), write(t, targetImplied)
	for _, args := range [][]string{
		{"sat", "-timeout", "1ns", sigma},
		{"sat", "-seq", "-timeout", "1ns", sigma},
		{"imp", "-seq", "-timeout", "1ns", sigma, target},
	} {
		out, errOut, code := gfdreason(t, args...)
		if code != 3 || out != "" || !strings.HasPrefix(errOut, "timeout: ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 3, no verdict, a timeout note", args, code, out, errOut)
		}
	}
}

// TestFlagsPerSubcommand pins that a subcommand accepts exactly the flags
// its usage line lists: another subcommand's flag is a usage error, not a
// silent no-op, and the argument shapes the benchmark drives keep their
// exit codes.
func TestFlagsPerSubcommand(t *testing.T) {
	sigma, target, g := write(t, sigmaSat), write(t, targetImplied), write(t, graphClean)
	_, store, wal := storeFixture(t)
	snap := filepath.Join(t.TempDir(), "out.snap")
	nanSnap := filepath.Join(t.TempDir(), "nan.snap")
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"sat", "-wal", wal, sigma}, 2},
		{[]string{"sat", "-compact", sigma}, 2},
		{[]string{"sat", "-o", snap, sigma}, 2},
		{[]string{"sat", "-baseline", sigma}, 2},
		{[]string{"imp", "-threshold", "0.5", sigma, target}, 2},
		{[]string{"check", "-p", "8", sigma, g}, 2},
		{[]string{"check", "-seq", sigma, g}, 2},
		{[]string{"check", "-baseline", sigma, g}, 2},
		{[]string{"snapshot", "-seq", g, snap}, 2},
		{[]string{"snapshot", "-timeout", "1s", g, snap}, 2},
		{[]string{"recover", "-wal", wal, store, wal}, 2},
		{[]string{"recover", "-compact", store, wal}, 2},
		{[]string{"sat", "-timeout", "-1s", sigma}, 2},
		{[]string{"imp", "-timeout", "-1s", sigma, target}, 2},
		{[]string{"check", "-timeout", "-1s", sigma, g}, 2},
		{[]string{"imp", "-baseline", "-timeout", "1s", sigma, target}, 2},
		// The engines would clamp these to one worker, and NaN fails every
		// threshold comparison, so RefreezeOpts would compact.
		{[]string{"sat", "-p", "0", sigma}, 2},
		{[]string{"sat", "-p", "-2", sigma}, 2},
		{[]string{"imp", "-p", "0", sigma, target}, 2},
		{[]string{"imp", "-p", "-1", sigma, target}, 2},
		{[]string{"recover", "-threshold", "NaN", "-o", nanSnap, store, wal}, 2},
		// Every flag still works where it belongs — among these the
		// shapes benchmark/gfdbench/workloads.go runs.
		{[]string{"sat", "-timeout", "1m", "-p", "2", sigma}, 0},
		{[]string{"sat", "-timeout", "1ns", "-p", "2", sigma}, 3},
		{[]string{"sat", "-seq", "-timeout", "1s", sigma}, 0},
		{[]string{"imp", "-p", "2", sigma, target}, 0},
		{[]string{"imp", "-seq", sigma, target}, 0},
		{[]string{"check", "-timeout", "1m", sigma, g}, 0},
		{[]string{"check", "-wal", wal, sigma, store}, 1},
		{[]string{"snapshot", "-compact", g, snap}, 0},
		{[]string{"recover", "-threshold", "0", "-o", snap, store, wal}, 0},
	} {
		out, errOut, code := gfdreason(t, tc.args...)
		if code != tc.want || code == 2 && out != "" {
			t.Errorf("gfdreason %v: exit %d, want %d (stdout %q, stderr %q)", tc.args, code, tc.want, out, errOut)
		}
	}
	if _, err := os.Stat(nanSnap); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("recover -threshold NaN wrote %s (stat: %v)", nanSnap, err)
	}
}

// storeFixture converts graphDirty to a binary store with the snapshot
// command and logs three ops against it through graph.OpenWAL (an attribute
// set, a node add and that node's attribute): node 1's violation is
// repaired and a new violating node 2 is added. It returns the rule file,
// the store and the log.
func storeFixture(t *testing.T) (sigma, store, wal string) {
	t.Helper()
	dir := t.TempDir()
	sigma, store, wal = write(t, sigmaSat), filepath.Join(dir, "store.snap"), filepath.Join(dir, "updates.wal")
	out, _, code := gfdreason(t, "snapshot", write(t, graphDirty), store)
	if code != 0 || !strings.HasPrefix(out, "wrote "+store+": 2 nodes (2 live), 0 edges") {
		t.Fatalf("snapshot: exit %d, stdout %q", code, out)
	}
	f, err := os.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	base, err := gfdio.ReadAnyGraph(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	l, err := graph.OpenWAL(wal, graph.NewDelta(base))
	if err != nil {
		t.Fatal(err)
	}
	l.SetAttr(1, "k", "1")
	l.AddNodeWithAttrs("n", map[string]string{"k": "9"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return sigma, store, wal
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStoreCheckAndRecover drives the store commands end to end: the binary
// store checks like the text it came from, check -wal sees the logged
// updates without touching store or log, and the image recover writes checks
// to the same violation lines.
func TestStoreCheckAndRecover(t *testing.T) {
	sigma, store, wal := storeFixture(t)
	out, _, code := gfdreason(t, "check", sigma, store)
	if code != 1 || out != "violation of one at [1]\n" {
		t.Errorf("check on the store: exit %d, stdout %q; want the text graph's answer", code, out)
	}
	storeBefore, walBefore := mustRead(t, store), mustRead(t, wal)
	overlaid, _, code := gfdreason(t, "check", "-wal", wal, sigma, store)
	if code != 1 || overlaid != "violation of one at [2]\n" {
		t.Errorf("check -wal: exit %d, stdout %q; want only the logged node 2 violating", code, overlaid)
	}
	if !bytes.Equal(mustRead(t, store), storeBefore) || !bytes.Equal(mustRead(t, wal), walBefore) {
		t.Error("check -wal modified the store or the log")
	}
	next := filepath.Join(t.TempDir(), "next.snap")
	out, _, code = gfdreason(t, "recover", "-o", next, store, wal)
	if code != 0 || !strings.HasPrefix(out, "replayed 3 ops over "+store) || !strings.Contains(out, "wrote "+next+": 3 nodes (3 live)") {
		t.Errorf("recover -o: exit %d, stdout %q", code, out)
	}
	if !bytes.Equal(mustRead(t, store), storeBefore) {
		t.Error("recover -o rewrote the input store")
	}
	folded, _, code := gfdreason(t, "check", sigma, next)
	if code != 1 || folded != overlaid {
		t.Errorf("check on the recovered image: exit %d, stdout %q; want check -wal's %q", code, folded, overlaid)
	}
}

// TestRecoverMissingLog pins that a mistyped log path is a usage error that
// leaves the store untouched, not an empty replay that rewrites it.
func TestRecoverMissingLog(t *testing.T) {
	_, store, wal := storeFixture(t)
	before := mustRead(t, store)
	out, errOut, code := gfdreason(t, "recover", store, wal+".typo")
	if code != 2 || out != "" || !strings.HasPrefix(errOut, "recover ") {
		t.Errorf("recover with a missing log: exit %d, stdout %q, stderr %q; want 2 and a recover error", code, out, errOut)
	}
	if !bytes.Equal(mustRead(t, store), before) {
		t.Error("recover with a missing log rewrote the store")
	}
}

// TestStoreWriteErrorExits2 pins that a store image that cannot be written
// — here, into a directory that does not exist — fails snapshot and
// recover -o with exit 2, and neither claims to have written it.
func TestStoreWriteErrorExits2(t *testing.T) {
	_, store, wal := storeFixture(t)
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out.snap")
	for _, args := range [][]string{
		{"snapshot", write(t, graphDirty), missing},
		{"recover", "-o", missing, store, wal},
	} {
		out, errOut, code := gfdreason(t, args...)
		if code != 2 || strings.Contains(out, "wrote") || !strings.Contains(errOut, "snapshot store") {
			t.Errorf("gfdreason %v: exit %d, stdout %q, stderr %q; want 2, no \"wrote\", the store error", args, code, out, errOut)
		}
	}
}

// TestCheckWALForeignBaseExits2 pins that check -wal refuses a log recorded
// over another base: replaying it fails on its first record (node 1 is not
// in a one-node store), so the run exits 2 with no verdict rather than
// checking the replayed prefix.
func TestCheckWALForeignBaseExits2(t *testing.T) {
	sigma, _, wal := storeFixture(t)
	other := filepath.Join(t.TempDir(), "other.snap")
	if _, _, code := gfdreason(t, "snapshot", write(t, "node 0 n k=1\n"), other); code != 0 {
		t.Fatalf("snapshot of the other base: exit %d", code)
	}
	out, errOut, code := gfdreason(t, "check", "-wal", wal, sigma, other)
	if code != 2 || out != "" || !strings.HasPrefix(errOut, "recover ") {
		t.Errorf("check -wal over another base: exit %d, stdout %q, stderr %q; want 2, no verdict, a recover error", code, out, errOut)
	}
}

// TestTornLogTail pins the torn-tail split between the two commands: check
// -wal validates the complete records, says so on stderr and leaves the log
// alone (a writer may still be appending); recover is the one that
// truncates.
func TestTornLogTail(t *testing.T) {
	sigma, store, wal := storeFixture(t)
	whole := mustRead(t, wal)
	torn := append(append([]byte(nil), whole...), 0x2a, 0x00, 0x00)
	if err := os.WriteFile(wal, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := gfdreason(t, "check", "-wal", wal, sigma, store)
	if code != 1 || out != "violation of one at [2]\n" {
		t.Errorf("check -wal over a torn log: exit %d, stdout %q; want both complete ops applied", code, out)
	}
	if !strings.Contains(errOut, "torn tail; checking the 3 complete ops") {
		t.Errorf("check -wal over a torn log: stderr %q lacks the torn-tail note", errOut)
	}
	if !bytes.Equal(mustRead(t, wal), torn) {
		t.Error("check -wal truncated the log; only recover may")
	}
	_, errOut, code = gfdreason(t, "recover", store, wal)
	if code != 0 || !strings.Contains(errOut, fmt.Sprintf("torn tail; truncated to %d bytes", len(whole))) {
		t.Errorf("recover over a torn log: exit %d, stderr %q; want the truncation note", code, errOut)
	}
	if !bytes.Equal(mustRead(t, wal), whole) {
		t.Error("recover did not truncate the log to its last complete record")
	}
	out, _, code = gfdreason(t, "check", sigma, store)
	if code != 1 || out != "violation of one at [2]\n" {
		t.Errorf("check on the store recover rewrote in place: exit %d, stdout %q", code, out)
	}
}
