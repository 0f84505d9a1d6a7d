// Package gfdio reads and writes the line-oriented text formats used by the
// command-line tools for graphs and GFD sets.
//
// Graph format (one statement per line, '#' comments):
//
//	node <id> <label> [attr=value ...]
//	edge <fromID> <toID> <label>
//
// Node IDs must be dense integers starting at 0, in order.
//
// GFD format:
//
//	gfd <name>
//	var <varname> <label>           # label may be _
//	edge <var> <var> <label>
//	when <var>.<attr> = "<const>"   # or: when <var>.<attr> = <var>.<attr>
//	then <var>.<attr> = "<const>"   # or variable form, or: then false
//	end
//
// A file may contain any number of gfd blocks. A term <var>.<attr> is one
// field, cut at its last '.'; "then false" is a block's whole consequent.
//
// Both readers parse in ranges, concurrently: a graph in at most GOMAXPROCS
// cut at line starts, a rule file at gfd lines. The result, or the error
// and its line number, is the one-range parse's.
package gfdio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// ReadFrozenGraph parses the graph format into a graph.Builder and returns
// the snapshot its Freeze makes. A regular file, bytes.Reader or
// strings.Reader is parsed in at most GOMAXPROCS ranges of at least
// minRangeLen bytes, anything else in one, as it streams.
func ReadFrozenGraph(r io.Reader) (*graph.Frozen, error) {
	if ra, at, size, ok := graph.ReaderAt(r); ok {
		open := func(off int64) io.Reader { return io.NewSectionReader(ra, at+off, math.MaxInt64) }
		return readGraphRanges(open, size, min(runtime.GOMAXPROCS(0), int(size/minRangeLen)))
	}
	return readGraphRanges(func(int64) io.Reader { return r }, 0, 1)
}

// readGraphRanges parses what open reads from an offset on in n ranges, at
// most one a byte: range k holds the lines that start in its k-th share of
// the size bytes, each parsed into a graph.Part on a goroutine of its own,
// and Builder.Join merges them. Only range 0 knows the nodes before it, so
// the merge checks each other's first node ID, and its edges before that.
// An error past range 0, or a failed check, re-parses in one range, which
// names the first error in file order and its line number.
func readGraphRanges(open func(off int64) io.Reader, size int64, n int) (*graph.Frozen, error) {
	const rowBytes = 16 // per row of a window; a range of shorter rows outgrows it
	n = max(1, min(n, int(size)))
	b, rows, ranges := graph.NewBuilder(0), make([]int, n), make([]graphRange, n)
	for k := range rows {
		rows[k] = int(((int64(k)+1)*size/int64(n) - int64(k)*size/int64(n)) / rowBytes)
	}
	parts := b.Split(rows)
	var wg sync.WaitGroup
	for k := range ranges {
		// Past range 0, the first line is the first past a '\n' at from.
		from, end := max(0, int64(k)*size/int64(n)-1), (int64(k)+1)*size/int64(n)
		if k == n-1 {
			end = math.MaxInt64
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// On this goroutine's stack, not in ranges, whose cache lines
			// the other goroutines write.
			rg := graphRange{part: parts[k], first: -min(k, 1), maxPre: -1}
			rg.err = rg.parse(open(from), k > 0, end-from)
			ranges[k] = rg
		}()
	}
	wg.Wait()
	if ranges[0].err != nil {
		return nil, ranges[0].err
	}
	nodes := 0
	for _, rg := range ranges {
		if rg.err != nil || rg.part.NumNodes() > 0 && rg.first != nodes || rg.maxPre >= nodes {
			return readGraphRanges(open, size, 1)
		}
		nodes += rg.part.NumNodes()
	}
	b.Join(parts)
	return b.Freeze(), nil
}

// graphRange is one range of a text graph as it parses.
type graphRange struct {
	part   *graph.Part
	first  int // the range's first node ID: 0 in range 0, elsewhere -1 until read
	maxPre int // the largest endpoint of an edge before first was known
	err    error
}

// parse reads lines from r up to the first that starts end bytes or more
// into r, past r's first line with skip, each split in place.
func (rg *graphRange) parse(r io.Reader, skip bool, end int64) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineLen)
	sc.Split(scanLine)
	var at int64 // where the next line starts in r
	if skip && sc.Scan() {
		at = int64(len(sc.Bytes())) + 1
	}
	var fields [][]byte
	p := rg.part
	for lineNo := 1; at < end && sc.Scan(); lineNo++ {
		at += int64(len(sc.Bytes())) + 1
		fields = splitFields(fields[:0], sc.Bytes(), math.MaxInt)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		switch string(fields[0]) {
		case "node":
			if len(fields) < 3 {
				return fmt.Errorf("line %d: node needs id and label", lineNo)
			}
			id, err := strconv.Atoi(string(fields[1]))
			if err != nil {
				return fmt.Errorf("line %d: bad node id %q", lineNo, fields[1])
			}
			if rg.first < 0 {
				rg.first = id
			}
			if want := rg.first + p.NumNodes(); id != want {
				return fmt.Errorf("line %d: node ids must be dense and ordered; got %d, want %d", lineNo, id, want)
			}
			p.AddNode(fields[2])
			for _, kv := range fields[3:] {
				eq := bytes.IndexByte(kv, '=')
				if eq <= 0 {
					return fmt.Errorf("line %d: bad attribute %q", lineNo, kv)
				}
				p.SetAttr(graph.NodeID(id), kv[:eq], kv[eq+1:])
			}
		case "edge":
			if len(fields) != 4 {
				return fmt.Errorf("line %d: edge needs from, to, label", lineNo)
			}
			from, err1 := strconv.Atoi(string(fields[1]))
			to, err2 := strconv.Atoi(string(fields[2]))
			if err1 != nil || err2 != nil {
				return fmt.Errorf("line %d: bad edge endpoints", lineNo)
			}
			if from < 0 || to < 0 || rg.first >= 0 && max(from, to) >= rg.first+p.NumNodes() {
				return fmt.Errorf("line %d: edge endpoint out of range", lineNo)
			}
			if rg.first < 0 {
				rg.maxPre = max(rg.maxPre, from, to)
			}
			p.AddEdge(graph.NodeID(from), graph.NodeID(to), fields[3])
		default:
			return fmt.Errorf("line %d: unknown statement %q", lineNo, fields[0])
		}
	}
	return sc.Err()
}

// scanLine is bufio.ScanLines keeping the '\r', which splitFields drops.
func scanLine(data []byte, atEOF bool) (int, []byte, error) {
	if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
		return nl + 1, data[:nl], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// WriteGraph emits the graph format from any representation. It writes only
// what ReadFrozenGraph reads back as the same graph and returns an error,
// naming the node or edge, for the rest: the format splits a line on
// whitespace and an attribute at its first '=', and has no way to say that
// an ID slot is tombstoned (Compact such a graph first).
func WriteGraph(w io.Writer, g graph.Reader) error {
	bw := bufio.NewWriter(w)
	alive, _ := g.(interface{ Alive(graph.NodeID) bool })
	// Each line is built in one reused buffer, without fmt: a graph has a
	// line per node and per edge.
	var line []byte
	for i := 0; i < g.NumNodes(); i++ {
		id := graph.NodeID(i)
		if alive != nil && !alive.Alive(id) {
			return fmt.Errorf("gfdio: node %d is tombstoned, which the text format cannot express", i)
		}
		if !isField(g.Label(id)) {
			return fmt.Errorf("gfdio: node %d: label %q is empty or contains whitespace", i, g.Label(id))
		}
		line = strconv.AppendInt(append(line[:0], "node "...), int64(i), 10)
		line = append(append(line, ' '), g.Label(id)...)
		attrs := g.Attrs(id)
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !isField(k) || strings.Contains(k, "=") {
				return fmt.Errorf("gfdio: node %d: attribute name %q is empty or contains whitespace or '='", i, k)
			}
			if v := attrs[k]; v != "" && !isField(v) {
				return fmt.Errorf("gfdio: node %d: value %q of attribute %s contains whitespace", i, v, k)
			}
			line = append(append(append(append(line, ' '), k...), '='), attrs[k]...)
		}
		bw.Write(append(line, '\n'))
	}
	// Edge lists repeat few labels, in runs: a label equal to the last one
	// found writable is not scanned again ("" never is, so it starts there).
	checked := ""
	for i := 0; i < g.NumNodes(); i++ {
		for _, e := range g.Out(graph.NodeID(i)) {
			if e.Label != checked || e.Label == "" {
				if !isField(e.Label) {
					return fmt.Errorf("gfdio: edge %d -> %d: label %q is empty or contains whitespace", e.From, e.To, e.Label)
				}
				checked = e.Label
			}
			line = strconv.AppendInt(append(line[:0], "edge "...), int64(e.From), 10)
			line = strconv.AppendInt(append(line, ' '), int64(e.To), 10)
			bw.Write(append(append(append(line, ' '), e.Label...), '\n'))
		}
	}
	return bw.Flush()
}

// isField reports whether s survives splitFields (strings.Fields) whole.
func isField(s string) bool {
	f := splitFields(make([]string, 0, 2), s, 2)
	return len(f) == 1 && len(f[0]) == len(s)
}

// maxLineLen is the longest line ReadGFDs reads, as it was when a
// bufio.Scanner with a buffer of this size split the lines; a longer one is
// refused with the scanner's error.
const maxLineLen = 16 * 1024 * 1024

// minRangeLen is the fewest bytes ReadGFDsWhere parses on a goroutine of
// its own: a smaller range's parse costs about what starting one does.
const minRangeLen = 32 << 10

// ReadGFDs parses a file of gfd blocks: ReadGFDsWhere with every block
// kept, in one range.
func ReadGFDs(r io.Reader) (*gfd.Set, error) {
	return ReadGFDsWhere(r, nil, 1)
}

// ReadGFDsWhere parses a file of gfd blocks and returns the GFDs whose
// pattern keep admits (all of them when keep is nil), in file order. Every
// block is parsed and checked alike, kept or not: a dropped block fails
// where ReadGFDs would, with the same error and line number. Each block is
// assembled in a scratch pattern that keep is shown and must not retain;
// only a kept block is copied out of it, frozen and built into a GFD.
//
// The text is cut into at most workers ranges of about equal bytes
// (cutRanges, minRangeLen), parsed concurrently, each with its own scratch
// pattern, so keep must be safe for concurrent calls (canon.Phi.Admits only
// reads). The answer is the one-range parse's: set, error and line number.
//
// It buffers all of r before it parses (so a read error is reported before
// any parse error), and every name, label and constant of the returned set
// is a substring of that one buffer: a line costs no copy, and the set keeps
// the whole file text — comments included — alive for as long as any of its
// GFDs is. Every caller today is a one-shot gfdreason run, where a rule file
// is parsed once per process and, on an implication query, parsing Σ is most
// of the run; a caller that keeps a few rules of a large file for long
// should strings.Clone what it keeps.
func ReadGFDsWhere(r io.Reader, keep func(*pattern.Pattern) bool, workers int) (*gfd.Set, error) {
	var text strings.Builder
	// One buffer of the file's size, where r knows it, not one grown by doubling.
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil {
			text.Grow(int(fi.Size()))
		}
	}
	if _, err := io.Copy(&text, r); err != nil {
		return nil, err
	}
	s := text.String()
	return readRanges(s, keep, cutRanges(s, min(workers, len(s)/minRangeLen)))
}

// cutRanges returns where each of at most n ranges of text starts, about
// len(text)/n bytes apart: at 0, then at the first line past each share that
// begins "gfd " (never an indented or tab-separated one). The one-range parse
// reads such a line as a gfd statement, which fails inside a block.
func cutRanges(text string, n int) []int {
	cuts := []int{0}
	for i := 1; i < n; i++ {
		from := max(i*len(text)/n, cuts[len(cuts)-1]+1)
		at := strings.Index(text[from-1:], "\ngfd ")
		if at < 0 {
			break
		}
		cuts = append(cuts, from+at)
	}
	return cuts
}

// readRanges parses text cut at cuts, the last range on the calling
// goroutine and each other on its own, numbering lines from the file's
// start, and joins the sets in range order; the first error in order wins.
func readRanges(text string, keep func(*pattern.Pattern) bool, cuts []int) (*gfd.Set, error) {
	gfds := make([][]*gfd.GFD, len(cuts))
	errs := make([]error, len(cuts))
	var wg sync.WaitGroup
	last, line := len(cuts)-1, 1
	for k := 0; k < last; k++ {
		rng := text[cuts[k]:cuts[k+1]]
		wg.Add(1)
		go func(k, line int) {
			defer wg.Done()
			gfds[k], errs[k] = readRange(rng, line, false, keep)
		}(k, line)
		line += strings.Count(rng, "\n")
	}
	gfds[last], errs[last] = readRange(text[cuts[last]:], line, true, keep)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return gfd.NewSet(slices.Concat(gfds...)...), nil
}

// readRange parses one range of a rule file, whose first line is line
// lineNo of the file; last says whether the range runs to the file's end.
func readRange(text string, lineNo int, last bool, keep func(*pattern.Pattern) bool) ([]*gfd.GFD, error) {
	var (
		gfds    []*gfd.GFD
		name    string
		pat     = pattern.New() // the open block's pattern; reset at each gfd line
		xs, ys  []gfd.Literal   // the open block's literals; reused from block to block
		isFalse bool
		inBlock bool
		buf     [5]string
	)
	for tail := text; tail != ""; lineNo++ {
		line := tail
		if nl := strings.IndexByte(tail, '\n'); nl >= 0 {
			line, tail = tail[:nl], tail[nl+1:]
		} else {
			tail = ""
		}
		if len(line) >= maxLineLen {
			return nil, bufio.ErrTooLong
		}
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		fields := splitFields(buf[:0], line, len(buf))
		switch fields[0] {
		case "gfd":
			if inBlock {
				return nil, fmt.Errorf("line %d: nested gfd block", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: gfd needs a name", lineNo)
			}
			name = fields[1]
			pat.Reset()
			inBlock = true
		case "var":
			if !inBlock || len(fields) != 3 {
				return nil, fmt.Errorf("line %d: bad var statement", lineNo)
			}
			if pat.VarByName(fields[1]) != pattern.InvalidVar {
				return nil, fmt.Errorf("line %d: duplicate variable %q", lineNo, fields[1])
			}
			pat.AddVar(fields[1], fields[2])
		case "edge":
			if !inBlock || len(fields) != 4 {
				return nil, fmt.Errorf("line %d: bad edge statement", lineNo)
			}
			from := pat.VarByName(fields[1])
			to := pat.VarByName(fields[2])
			if from == pattern.InvalidVar || to == pattern.InvalidVar {
				return nil, fmt.Errorf("line %d: edge references undeclared variable", lineNo)
			}
			pat.AddEdge(from, to, fields[3])
		case "when", "then":
			if !inBlock {
				return nil, fmt.Errorf("line %d: %s outside gfd block", lineNo, fields[0])
			}
			// false is the whole consequent: a literal beside it would be
			// dropped without a word, so the later of the two is an error.
			if fields[0] == "then" && len(fields) == 2 && fields[1] == "false" {
				if len(ys) > 0 {
					return nil, fmt.Errorf("line %d: then false after another then literal", lineNo)
				}
				isFalse = true
				continue
			} else if fields[0] == "then" && isFalse {
				return nil, fmt.Errorf("line %d: then literal after then false", lineNo)
			}
			lit, err := parseLiteral(pat, line[len(fields[0]):], fields)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if fields[0] == "when" {
				xs = append(xs, lit)
			} else {
				ys = append(ys, lit)
			}
		case "end":
			if !inBlock {
				return nil, fmt.Errorf("line %d: end outside gfd block", lineNo)
			}
			var (
				phi *gfd.GFD
				err error
			)
			if keep != nil && !keep(pat) {
				// Dropped, but refused where a kept block would be. (With
				// then false, ys is empty and the literals false adds are on
				// the first variable, so this is NewFalse's check too.)
				err = gfd.Validate(name, pat, xs, ys)
			} else {
				// The GFD gets an exact-size pattern and literal copies (nil
				// for no literals); pat, xs and ys go on to the next block.
				p, x := pat.Clone(), append([]gfd.Literal(nil), xs...)
				if isFalse {
					phi, err = gfd.NewFalse(name, p, x)
				} else {
					phi, err = gfd.New(name, p, x, append([]gfd.Literal(nil), ys...))
				}
			}
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if phi != nil {
				gfds = append(gfds, phi)
			}
			name, xs, ys, isFalse, inBlock = "", xs[:0], ys[:0], false, false
		default:
			return nil, fmt.Errorf("line %d: unknown statement %q", lineNo, fields[0])
		}
	}
	if inBlock && !last { // the next range opens with a gfd line, read inside this block
		return nil, fmt.Errorf("line %d: nested gfd block", lineNo)
	} else if inBlock {
		return nil, fmt.Errorf("unterminated gfd block %q", name)
	}
	return gfds, nil
}

// splitFields is strings.Fields without the allocation, for a rule line (a
// string) or a graph line (the scanner's bytes): it appends the fields of
// line to dst, sub-slices that alias line, and stops at the limit-th. A rule
// line takes at most five, since no statement has more than four and a
// fifth only says "too many". Separators are runs of unicode.IsSpace, as
// for strings.Fields; each byte is looked up in byteKind, and only those of
// multi-byte runes are decoded: an ASCII byte costs one load and one branch.
func splitFields[S string | []byte](dst []S, line S, limit int) []S {
	start := 0
	for i := 0; i < len(line); {
		k, w := byteKind[line[i]], 1
		if k == fieldByte {
			i++
			continue
		}
		if k == runeByte {
			// A rune takes at most UTFMax bytes, and converting that few
			// allocates nothing.
			r, rw := utf8.DecodeRuneInString(string(line[i:min(i+utf8.UTFMax, len(line))]))
			if w = rw; !unicode.IsSpace(r) {
				i += w
				continue
			}
		}
		if start < i {
			if dst = append(dst, line[start:i]); len(dst) == limit {
				return dst
			}
		}
		i += w
		start = i
	}
	if start < len(line) {
		dst = append(dst, line[start:])
	}
	return dst
}

// The kinds of byte splitFields tells apart.
const (
	fieldByte = iota // an ASCII byte that is not white space
	spaceByte        // ASCII white space
	runeByte         // a byte of a multi-byte rune, or of invalid UTF-8
)

var byteKind = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = runeByte
	}
	for _, c := range "\t\n\v\f\r " {
		t[c] = spaceByte
	}
	return t
}()

// parseLiteral parses `x.A = "c"` or `x.A = y.B`, what follows the keyword
// of a when or then line split into fields. A line of exactly the keyword, a
// term without '=', "=" and a right-hand side — every literal WriteGFDs
// writes but a constant with white space — has its sides in those fields.
func parseLiteral(pat *pattern.Pattern, rest string, fields []string) (gfd.Literal, error) {
	var lhs, rhs string
	if len(fields) == 4 && fields[2] == "=" && strings.IndexByte(fields[1], '=') < 0 {
		lhs, rhs = fields[1], fields[3]
	} else {
		rest = strings.TrimSpace(rest)
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return gfd.Literal{}, fmt.Errorf("literal missing '=': %q", rest)
		}
		lhs, rhs = strings.TrimSpace(rest[:eq]), strings.TrimSpace(rest[eq+1:])
	}
	x, a, err := parseTerm(pat, lhs)
	if err != nil {
		return gfd.Literal{}, err
	}
	if strings.HasPrefix(rhs, "\"") {
		c, uerr := strconv.Unquote(rhs)
		if uerr != nil {
			return gfd.Literal{}, fmt.Errorf("bad constant %q: %v", rhs, uerr)
		}
		return gfd.Const(x, a, c), nil
	}
	y, b, err := parseTerm(pat, rhs)
	if err != nil {
		return gfd.Literal{}, err
	}
	return gfd.Vars(x, a, y, b), nil
}

func parseTerm(pat *pattern.Pattern, s string) (pattern.Var, string, error) {
	dot := strings.LastIndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return 0, "", fmt.Errorf("bad attribute term %q (want var.attr)", s)
	}
	v := pat.VarByName(s[:dot])
	if v == pattern.InvalidVar {
		return 0, "", fmt.Errorf("undeclared variable %q", s[:dot])
	}
	// A term is one field: "x.b junk" is not the attribute "b junk".
	if !isField(s[dot+1:]) {
		return 0, "", fmt.Errorf("bad attribute term %q (want var.attr)", s)
	}
	return v, s[dot+1:], nil
}

// WriteGFDs emits a set in the gfd block format. Like WriteGraph it writes
// only what ReadGFDs reads back as the same rule and returns an error, naming
// the GFD and the field, for the rest: a statement is split on whitespace, a
// literal at its first '=', a term at its last '.', and a right-hand side that
// opens with '"' is a constant.
func WriteGFDs(w io.Writer, set *gfd.Set) error {
	bw := bufio.NewWriter(w)
	for _, phi := range set.GFDs {
		if !isField(phi.Name) {
			return fmt.Errorf("gfdio: gfd %q: name is empty or contains whitespace", phi.Name)
		}
		fmt.Fprintf(bw, "gfd %s\n", phi.Name)
		p := phi.Pattern
		for i := 0; i < p.NumVars(); i++ {
			name, label := p.Name(pattern.Var(i)), p.Label(pattern.Var(i))
			if !isField(name) {
				return fmt.Errorf("gfdio: gfd %s: variable name %q is empty or contains whitespace", phi.Name, name)
			}
			if !isField(label) {
				return fmt.Errorf("gfdio: gfd %s: label %q of variable %s is empty or contains whitespace", phi.Name, label, name)
			}
			fmt.Fprintf(bw, "var %s %s\n", name, label)
		}
		for _, e := range p.Edges() {
			if !isField(e.Label) {
				return fmt.Errorf("gfdio: gfd %s: label %q of edge %s -> %s is empty or contains whitespace", phi.Name, e.Label, p.Name(e.From), p.Name(e.To))
			}
			fmt.Fprintf(bw, "edge %s %s %s\n", p.Name(e.From), p.Name(e.To), e.Label)
		}
		if err := writeLiterals(bw, "when", p, phi.X); err != nil {
			return fmt.Errorf("gfdio: gfd %s: %v", phi.Name, err)
		}
		// "then false" reads back as NewFalse's consequent; a falsehood
		// spelled any other way is written literal by literal.
		if phi.IsFalseSugar() {
			fmt.Fprintf(bw, "then false\n")
		} else if err := writeLiterals(bw, "then", p, phi.Y); err != nil {
			return fmt.Errorf("gfdio: gfd %s: %v", phi.Name, err)
		}
		fmt.Fprintf(bw, "end\n")
	}
	return bw.Flush()
}

func writeLiterals(bw *bufio.Writer, kw string, p *pattern.Pattern, ls []gfd.Literal) error {
	for _, l := range ls {
		text, err := literalText(p, l)
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, "%s %s\n", kw, text)
	}
	return nil
}

func literalText(p *pattern.Pattern, l gfd.Literal) (string, error) {
	lhs, err := termText(p, l.X, l.A)
	if err != nil {
		return "", err
	}
	if l.Kind == gfd.ConstLiteral {
		return lhs + " = " + strconv.Quote(l.Const), nil
	}
	rhs, err := termText(p, l.Y, l.B)
	return lhs + " = " + rhs, err
}

func termText(p *pattern.Pattern, v pattern.Var, attr string) (string, error) {
	name := p.Name(v)
	if strings.Contains(name, "=") || strings.HasPrefix(name, `"`) {
		return "", fmt.Errorf("variable name %q in a literal contains '=' or starts with '\"'", name)
	}
	if !isField(attr) || strings.ContainsAny(attr, ".=") {
		return "", fmt.Errorf("attribute name %q is empty or contains whitespace, '.' or '='", attr)
	}
	return name + "." + attr, nil
}
