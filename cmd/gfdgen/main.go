// Command gfdgen generates synthetic GFD workloads (Section VII's
// generator) in the gfdio text format, for use with gfdreason.
//
// Usage:
//
//	gfdgen [-n 100] [-k 4] [-l 3] [-profile dbpedia|yago2|pokec]
//	       [-conflicts 0] [-wildcard 0.1] [-seed 1]
//	       [-imp-target] [-o sigma.gfd] [-target-o phi.gfd]
//
// With -imp-target, an implication instance is produced instead: Σ goes to
// the -o file and a chain-dependent non-implied target GFD to stdout (or
// -target-o). A flag value outside its range and any positional argument
// exit 2 with nothing written.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/gfdio"
)

const usage = `usage: gfdgen [-n 100] [-k 4] [-l 3] [-profile dbpedia|yago2|pokec]
              [-conflicts 0] [-wildcard 0.1] [-seed 1]
              [-imp-target] [-o sigma.gfd] [-target-o phi.gfd]`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gfdgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, usage); fs.PrintDefaults() }
	n := fs.Int("n", 100, "|Σ|: number of GFDs (>= 1)")
	k := fs.Int("k", 4, "max pattern nodes (>= 1)")
	l := fs.Int("l", 3, "max literals in X and in Y (>= 1)")
	profileName := fs.String("profile", "dbpedia", "dataset profile: dbpedia, yago2, pokec")
	conflicts := fs.Int("conflicts", 0, "inject this many conflicting GFDs (0 = satisfiable)")
	wildcard := fs.Float64("wildcard", 0.1, "wildcard label rate in [0,1]; 0 means the generator's default 0.1")
	seed := fs.Int64("seed", 1, "random seed")
	impTarget := fs.Bool("imp-target", false, "emit an implication instance (Σ + chain target)")
	out := fs.String("o", "", "output file for Σ (default stdout)")
	targetOut := fs.String("target-o", "", "output file for the implication target (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n%s\n", append(a, usage)...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return fail("unexpected argument %q", fs.Arg(0))
	case *n < 1 || *k < 1 || *l < 1:
		return fail("-n, -k and -l must be at least 1 (got %d, %d, %d)", *n, *k, *l)
	case *conflicts < 0:
		return fail("-conflicts must not be negative (got %d)", *conflicts)
	case !(*wildcard >= 0 && *wildcard <= 1): // also refuses NaN
		return fail("-wildcard must lie in [0,1] (got %v)", *wildcard)
	case *targetOut != "" && !*impTarget:
		return fail("-target-o needs -imp-target")
	}

	var profile *dataset.Profile
	switch strings.ToLower(*profileName) {
	case "dbpedia":
		profile = dataset.DBpedia()
	case "yago2":
		profile = dataset.YAGO2()
	case "pokec":
		profile = dataset.Pokec()
	default:
		return fail("unknown profile %q", *profileName)
	}

	g := gen.New(gen.Config{
		N: *n, K: *k, L: *l,
		Profile:      profile,
		Conflicts:    *conflicts,
		WildcardRate: *wildcard,
		Seed:         *seed,
	})

	write := func(path string, set *gfd.Set) error {
		if path == "" {
			return gfdio.WriteGFDs(stdout, set)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := gfdio.WriteGFDs(f, set); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	var err error
	if *impTarget {
		set, phi := g.ImpInstance(6)
		if err = write(*out, set); err == nil {
			err = write(*targetOut, gfd.NewSet(phi))
		}
	} else {
		err = write(*out, g.Set())
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return 0
}
