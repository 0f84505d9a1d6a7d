// Package repro is a reproduction of "Parallel Reasoning of Graph
// Functional Dependencies" (Fan, Liu, Cao; ICDE 2018): sequential and
// parallel-scalable algorithms for the satisfiability and implication
// analyses of GFDs, with every substrate (property graphs with one CSR
// index that every reader — the editable graph included — answers from,
// pattern matching, canonical graphs, the Eq equivalence relation, a simulated
// cluster runtime, workload generators and a chase baseline) implemented
// from scratch on the Go standard library.
//
// See README.md for the quickstart and DESIGN.md for the system inventory;
// its "Per-experiment index" maps each runner to the paper figure it
// regenerates. cmd/benchall prints every table and figure of the paper's
// evaluation at a reduced scale, and its -ci form runs the ratio gate;
// benchmark/ measures absolute times end to end (DESIGN.md "Benchmarks").
package repro
