// Command gfdreason checks the satisfiability of a GFD set, the implication
// of a target GFD, or the satisfaction of a data graph, from files in the
// gfdio formats, and manages the persistent graph store (binary snapshots
// plus a write-ahead delta log).
//
// Usage:
//
//	gfdreason sat      [-p 4] [-seq] [-timeout 30s] sigma.gfd
//	gfdreason imp      [-p 4] [-seq] [-baseline] [-timeout 30s] sigma.gfd target.gfd
//	gfdreason check    [-wal updates.wal] [-timeout 30s] sigma.gfd graph
//	gfdreason snapshot [-compact] graph store.snap
//	gfdreason recover  [-threshold 0.25] [-o new.snap] store.snap updates.wal
//
// sat prints SATISFIABLE or UNSATISFIABLE (with the conflicting attribute),
// imp prints IMPLIED or NOT-IMPLIED, check prints the violations of the
// rules in the graph. imp builds only the rules of sigma.gfd its target can
// use — those whose pattern could match the target's (every block is still
// parsed and checked) — except under -baseline, which chases them all. sat
// and imp parse sigma.gfd on their -p workers: the file is cut into at most
// p ranges of about equal bytes, each starting at a line that begins "gfd "
// (a file under 64 KiB stays whole), parsed concurrently and joined in file
// order, with the one-range parse's set, errors and line numbers; -seq,
// check and imp's target file parse in one range. With a faster line
// splitter, that took an imp query against a 302 KB Σ of 1,200 GFDs at -p 2
// from 5.4 to 3.6 ms of wall time on two cores. The
// "matches reused" count sat and imp print on stderr depends on the schedule
// at -p 2 and up, and so does the conflict an UNSATISFIABLE sat names: its
// workers chase disjoint parts of the canonical graph, and the first part to
// conflict names it, so two runs can name different conflicts. Each is a
// real one, and the verdict does not change. check runs its pattern groups
// on GOMAXPROCS workers (every core unless the GOMAXPROCS environment
// variable says otherwise); the list it prints does not depend on the worker
// count. Exit status 0 on success, 1 on a negative check answer, 2 on usage
// or parse errors, 3 when -timeout expired before the run finished — a
// negative answer (exit 1) and a run that never completed (exit 3) are
// different facts, so they get different codes. A subcommand accepts
// exactly the flags on its line above; any other is a usage error.
//
// -seq is -p 1: the sequential algorithms are the parallel ones on one
// worker. -timeout bounds sat, imp, and check through the engines'
// cooperative cancellation; the baseline has none, so -timeout rejects
// -baseline, and a negative value is a usage error, as are -p below 1 and
// -threshold NaN.
//
// Graph arguments accept either format transparently: the text format or a
// binary snapshot image (sniffed by magic bytes). snapshot converts to the
// binary store (optionally compacting tombstones first); check -wal
// recovers a delta log over the store and validates the composed state, so
// the check pipeline runs against a saved store without rebuilding it;
// recover replays a log (truncating any torn tail), folds it into the
// snapshot via the compaction-policy refreeze, and writes the next store
// image — the log is NOT deleted, remove or rotate it once the new image is
// durable.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/gfd"
	"repro/internal/gfdio"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/rdfchase"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	// Each subcommand registers only the flags its usage line lists, so a
	// flag that would do nothing there is unknown (exit 2), not ignored.
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	switch cmd {
	case "sat":
		workers, seq, timeout := engineFlags(fs)
		args := parse(fs, 1)
		p := engineWorkers(*workers, *seq)
		ctx, cancel := runContext(*timeout, false)
		defer cancel()
		set := readSet(args[0], nil, p)
		opt := core.DefaultParOptions(p)
		opt.Ctx = ctx
		res := core.ParSat(set, opt)
		exitOnRunErr(res.Err)
		sharingNote(res.Stats)
		if res.Satisfiable {
			fmt.Println("SATISFIABLE")
			return
		}
		fmt.Printf("UNSATISFIABLE: %v\n", res.Conflict)
		os.Exit(1)
	case "imp":
		workers, seq, timeout := engineFlags(fs)
		baseline := fs.Bool("baseline", false, "use the chase baseline (ParImpRDF)")
		args := parse(fs, 2)
		p := engineWorkers(*workers, *seq)
		ctx, cancel := runContext(*timeout, *baseline)
		defer cancel()
		// Σ′ is decided while Σ is parsed: the engines build only the GFDs
		// that can match the target's pattern. The target is read first for
		// that, but a bad Σ is still reported before anything wrong with
		// the target, so then Σ is read whole, as it is for -baseline (the
		// paper's ParImpRDF chases all of Σ).
		targets, terr := loadSet(args[1], nil, 1)
		var keep func(*pattern.Pattern) bool
		if terr == nil && targets.Len() == 1 && !*baseline {
			keep = canon.BuildPhi(targets.GFDs[0]).Admits
		}
		set := readSet(args[0], keep, p)
		if terr != nil {
			fatalf("%v", terr)
		}
		if targets.Len() != 1 {
			fatalf("target file must contain exactly one GFD, got %d", targets.Len())
		}
		phi := targets.GFDs[0]
		var implied bool
		var reason string
		if *baseline {
			implied = rdfchase.Implies(set, phi).Implied
			reason = "chase fixpoint"
		} else {
			opt := core.DefaultParOptions(p)
			opt.Ctx = ctx
			r := core.ParImp(set, phi, opt)
			exitOnRunErr(r.Err)
			implied, reason = r.Implied, r.Reason.String()
			sharingNote(r.Stats)
		}
		if implied {
			fmt.Printf("IMPLIED (%s)\n", reason)
			return
		}
		fmt.Println("NOT-IMPLIED")
		os.Exit(1)
	case "check":
		wal := fs.String("wal", "", "recover this delta log over the graph before checking")
		timeout := timeoutFlag(fs)
		args := parse(fs, 2)
		ctx, cancel := runContext(*timeout, false)
		defer cancel()
		set := readSet(args[0], nil, 1)
		// Validation is read-only over a potentially large graph: load the
		// CSR snapshot directly (binary store) or ingest through the
		// bulk-load Builder (text format).
		g := readGraph(args[1])
		var data graph.Reader = g
		if *wal != "" {
			// check is read-only: replay without touching the file. A writer
			// may still be appending to this log; RecoverFile's torn-tail
			// truncation here would cut a record the writer goes on to
			// complete, stranding everything after it. Only `recover` — the
			// command that folds the log away — repairs the file.
			lf, err := os.Open(*wal)
			if err != nil {
				fatalf("recover %s: %v", *wal, err)
			}
			d, stats, err := graph.Recover(g, lf)
			lf.Close()
			if err != nil {
				fatalf("recover %s: %v", *wal, err)
			}
			if stats.Truncated {
				fmt.Fprintf(os.Stderr, "note: %s carries a torn tail; checking the %d complete ops (%d bytes)\n",
					*wal, stats.Records, stats.Bytes)
			}
			data = d.Overlay()
		}
		vs, vstats, verr := core.ViolationsOpts(ctx, data, set, core.VerifyOptions{})
		exitOnRunErr(verr)
		// The verdict on stdout stays machine-readable; sharing telemetry
		// goes to stderr like the other notes.
		fmt.Fprintf(os.Stderr, "sharing: %d pattern groups for %d GFDs; %d GFDs shared a pattern, %d matches reused\n",
			vstats.Groups, set.Len(), vstats.SharedGFDs, vstats.MatchesReused)
		if len(vs) == 0 {
			fmt.Println("CLEAN: graph satisfies all rules")
			return
		}
		// One buffered writer for the list: a dense graph reports tens of
		// thousands of violations, and stdout is otherwise a write(2) each.
		out := bufio.NewWriter(os.Stdout)
		var line []byte
		for _, v := range vs {
			line = appendViolation(line[:0], v)
			out.Write(line)
		}
		if err := out.Flush(); err != nil {
			fatalf("write violations: %v", err)
		}
		os.Exit(1)
	case "snapshot":
		compact := fs.Bool("compact", false, "drop tombstoned node slots (renumbers IDs)")
		args := parse(fs, 2)
		g := readGraph(args[0])
		if *compact {
			var remap graph.Remap
			if g, remap = g.Compact(); remap != nil {
				fmt.Fprintf(os.Stderr, "note: compaction dropped %d dead slots and renumbered node IDs\n",
					len(remap)-g.NumNodes())
			}
		}
		writeSnapshot(args[1], g)
		fmt.Printf("wrote %s: %d nodes (%d live), %d edges\n", args[1], g.NumNodes(), g.LiveNodes(), g.NumEdges())
	case "recover":
		threshold := fs.Float64("threshold", graph.DefaultCompactThreshold,
			"dead-slot fraction that triggers compaction (0 compacts any dead slot, negative disables)")
		output := fs.String("o", "", "write the folded snapshot here (default: overwrite the store)")
		args := parse(fs, 2)
		if math.IsNaN(*threshold) {
			// NaN fails every comparison RefreezeOpts makes, so it would compact.
			fatalf("-threshold must be a number, got NaN")
		}
		g := readGraph(args[0])
		d, stats, err := graph.RecoverFile(g, args[1])
		if err != nil {
			fatalf("recover %s: %v", args[1], err)
		}
		if stats.Truncated {
			fmt.Fprintf(os.Stderr, "note: %s carried a torn tail; truncated to %d bytes\n", args[1], stats.Bytes)
		}
		// RefreezeOptions treats 0 as "use the default" (the Go options
		// idiom); the flag's 0 means "compact any dead slot", so translate
		// to the smallest positive threshold.
		thr := *threshold
		if thr == 0 {
			thr = math.SmallestNonzeroFloat64
		}
		nf, remap := g.RefreezeOpts(d, graph.RefreezeOptions{CompactThreshold: thr})
		out := *output
		if out == "" {
			out = args[0]
		}
		writeSnapshot(out, nf)
		action, dead := "carried", nf.NumNodes()-nf.LiveNodes()
		if remap != nil {
			action, dead = "compacted away", len(remap)-nf.NumNodes()
		}
		fmt.Printf("replayed %d ops over %s; %s %d dead slots; wrote %s: %d nodes (%d live), %d edges\n",
			stats.Records, args[0], action, dead, out, nf.NumNodes(), nf.LiveNodes(), nf.NumEdges())
	default:
		usage()
	}
}

// engineFlags registers what sat and imp share.
func engineFlags(fs *flag.FlagSet) (workers *int, seq *bool, timeout *time.Duration) {
	return fs.Int("p", 4, "parallel workers; -seq is -p 1"),
		fs.Bool("seq", false, "use the sequential algorithm (the parallel one on one worker)"), timeoutFlag(fs)
}

// engineWorkers returns the worker count sat and imp run on: 1 under -seq,
// since the sequential algorithms are the parallel ones on one worker, and
// -p otherwise. It refuses a -p the engines would clamp to 1.
func engineWorkers(p int, seq bool) int {
	if p < 1 {
		fatalf("-p must be at least 1, got %d", p)
	}
	if seq {
		return 1
	}
	return p
}

func timeoutFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0, "cancel the run after this long and exit 3")
}

// parse parses the subcommand's arguments (an unknown flag exits 2) and
// returns the n file arguments it takes.
func parse(fs *flag.FlagSet, n int) []string {
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != n {
		usage()
	}
	return fs.Args()
}

// runContext is the context -timeout bounds the run with; zero means
// unbounded. baseline says the flags selected imp's chase baseline, which
// has no cooperative cancellation, so a timeout cannot bound it.
func runContext(timeout time.Duration, baseline bool) (context.Context, context.CancelFunc) {
	switch {
	case timeout < 0:
		fatalf("-timeout must not be negative, got %v", timeout)
	case timeout == 0:
		return context.Background(), func() {}
	case baseline:
		fatalf("-timeout needs the engines' cooperative cancellation; it cannot bound a -baseline run")
	}
	return context.WithTimeout(context.Background(), timeout)
}

// readGraph loads a data graph in either format (text or binary snapshot).
func readGraph(path string) *graph.Frozen {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	g, err := gfdio.ReadAnyGraph(f)
	if err != nil {
		fatalf("parse %s: %v", path, err)
	}
	return g
}

// writeSnapshot writes the binary store image through the crash-safe
// rewrite protocol (temp + fsync + rename + directory fsync; see
// gfdio.WriteSnapshotAtomic): a crash or I/O failure leaves the previous
// store image intact, never a torn one.
func writeSnapshot(path string, g *graph.Frozen) {
	if err := gfdio.WriteSnapshotAtomic(path, g); err != nil {
		fatalf("%v", err)
	}
}

// readSet is loadSet that exits 2 on an error.
func readSet(path string, keep func(*pattern.Pattern) bool, workers int) *gfd.Set {
	set, err := loadSet(path, keep, workers)
	if err != nil {
		fatalf("%v", err)
	}
	return set
}

// loadSet reads the GFDs of a rule file that keep admits (all when nil),
// parsing it in at most workers ranges at once (gfdio.ReadGFDsWhere).
func loadSet(path string, keep func(*pattern.Pattern) bool, workers int) (*gfd.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set, err := gfdio.ReadGFDsWhere(f, keep, workers)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %v", path, err)
	}
	return set, nil
}

// exitOnRunErr maps an engine run error to the exit contract: a timed-out
// or canceled run exits 3 (the question was never answered, which is not
// the exit-1 negative answer), anything else is a hard error.
func exitOnRunErr(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, core.ErrCanceled) {
		fmt.Fprintf(os.Stderr, "timeout: %v\n", err)
		os.Exit(3)
	}
	fatalf("%v", err)
}

// sharingNote reports how much pattern-level work a reasoning run shared
// across structurally equal GFDs. Silent when the set had no duplicate
// structure, so single-GFD runs stay quiet.
func sharingNote(st core.Stats) {
	if st.GroupsShared > 0 {
		fmt.Fprintf(os.Stderr, "sharing: %d pattern groups enumerated once for multiple GFDs; %d matches reused\n",
			st.GroupsShared, st.MatchesReused)
	}
}

// appendViolation appends check's line for v, "violation of <gfd> at
// [<ids>]\n" — what fmt's %v prints for the match — without formatting by
// reflection: a dense graph reports tens of thousands of violations.
func appendViolation(dst []byte, v core.Violation) []byte {
	dst = append(dst, "violation of "...)
	dst = append(dst, v.GFD.Name...)
	dst = append(dst, " at ["...)
	for i, n := range v.Match {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return append(dst, "]\n"...)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gfdreason sat      [-p 4] [-seq] [-timeout 30s] sigma.gfd
  gfdreason imp      [-p 4] [-seq] [-baseline] [-timeout 30s] sigma.gfd target.gfd
  gfdreason check    [-wal updates.wal] [-timeout 30s] sigma.gfd graph
  gfdreason snapshot [-compact] graph store.snap
  gfdreason recover  [-threshold 0.25] [-o new.snap] store.snap updates.wal
graph arguments accept the text format or a binary snapshot image
-timeout cancels the run and exits 3 (distinct from exit 1, a negative answer)`)
	os.Exit(2)
}
