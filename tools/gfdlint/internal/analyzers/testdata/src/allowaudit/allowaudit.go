// Fixtures for the unused-suppression audit: an //gfdlint:allow directive
// that suppresses a live finding survives; one with nothing beneath it is
// reported (nolintlint-style), so dead suppressions cannot accumulate.
package allowaudit

import "fixtures/graph"

// The directive suppresses a real mutatorerr finding: used, not reported.
func usedDirective(w *graph.WAL) {
	//gfdlint:allow mutatorerr -- the log is being abandoned; nothing reads its error
	w.Close()
}

// Nothing trips mutatorerr on the covered lines: the directive is dead.
func unusedDirective(w *graph.WAL) error {
	//gfdlint:allow mutatorerr -- the error below is returned, nothing to allow // want "unused //gfdlint:allow directive"
	return w.Close()
}

// A blanket directive with no names is a wildcard; unused ones are flagged
// the same way.
func wildcardUnused() int {
	//gfdlint:allow -- blanket suppression guarding nothing // want "unused //gfdlint:allow directive"
	return 1
}
