package macroflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents TestDocsNameRealThings holds to the tree.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// docRoots are the top-level directories a back-ticked span must start
// with to be read as a repo-relative path.
var docRoots = []string{"api/", "cmd/", "examples/", "internal/", "scripts/", "testdata/", ".claude/"}

var (
	backticked   = regexp.MustCompile("`([^`\n]+)`")
	testToken    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*\*?`)
	placeholder  = regexp.MustCompile(`<[^>]*>|%[a-z]`)
	metricLabels = regexp.MustCompile(`\{.*$`)
)

// TestDocsNameRealThings keeps the written record honest where that is
// cheap and exact. In README.md, DESIGN.md, EXPERIMENTS.md and the
// verify skill:
//
//   - every Test…/Benchmark…/Fuzz… name is a function of some _test.go
//     file in the tree (a trailing * makes it a prefix);
//   - every back-ticked repo-relative path (cmd/…, internal/…, …) exists,
//     or is something .gitignore says a build or run leaves behind;
//   - DESIGN.md §8's metric table and the names the library passes to
//     Add / Counter / SetGauge / BucketHist are the same set.
func TestDocsNameRealThings(t *testing.T) {
	tests, metrics := scanTree(t)
	ignored := gitignored(t)
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		toks := testToken.FindAllString(text, -1)
		slices.Sort(toks)
		for _, tok := range slices.Compact(toks) {
			if !resolvesTest(tests, tok) {
				t.Errorf("%s names %s, which is no test, benchmark or fuzz function in the tree", doc, tok)
			}
		}
		for _, m := range backticked.FindAllStringSubmatch(text, -1) {
			p, ok := docPath(m[1])
			if !ok {
				continue
			}
			if matches, _ := filepath.Glob(p); len(matches) == 0 && !ignored(p) {
				t.Errorf("%s names the path %s, which is not in the tree", doc, p)
			}
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := metricTable(t, string(design))
	for name := range metrics {
		if !documented[name] {
			t.Errorf("the library emits metric %s, which DESIGN.md §8's table does not list", name)
		}
	}
	for name := range documented {
		if !metrics[name] {
			t.Errorf("DESIGN.md §8 lists metric %s, which the library never emits", name)
		}
	}
}

// scanTree parses every Go file under the repo: the test, benchmark and
// fuzz function names of the _test.go files, and — from the library's
// non-test files (the root package and internal/, minus internal/obs,
// whose literals are its own examples) — the metric names passed as a
// string literal (possibly through fmt.Sprintf, or with a suffix
// appended) to a registry method. Format verbs and appended suffixes
// become *, inline labels are dropped.
func scanTree(t *testing.T) (tests, metrics map[string]bool) {
	tests, metrics = map[string]bool{}, map[string]bool{}
	registry := map[string]bool{"Add": true, "Counter": true, "SetGauge": true, "BucketHist": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || name == "out" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testToken.MatchString(fn.Name.Name) {
					tests[fn.Name.Name] = true
				}
			}
			return nil
		}
		library := !strings.Contains(path, "/") || strings.HasPrefix(path, "internal/")
		if !library || strings.HasPrefix(path, "internal/obs/") {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registry[sel.Sel.Name] {
				return true
			}
			if name, ok := metricLiteral(call.Args[0]); ok {
				metrics[name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tests, metrics
}

// TestFanOutOnlyThroughEach: the stitcher and the forest start no
// goroutine of their own. Their parallel loops — descent tiles, chain
// rounds, shards, trees — run on obs.Each, the one fixed fan-out loop,
// so a go statement or a sync.WaitGroup in a non-test file of
// internal/stitch or internal/ml is a second loop.
func TestFanOutOnlyThroughEach(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/stitch", "internal/ml"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement; fan out through obs.Each", fset.Position(n.Pos()))
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && n.Sel.Name == "WaitGroup" {
						t.Errorf("%s: sync.WaitGroup; fan out through obs.Each", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
}

// TestSeededLoopsUseRNG: the stitcher, the placer and the front end
// draw through internal/rng, the one concrete replica of math/rand's
// seeded stream, so a non-test file of internal/stitch, internal/place
// or internal/synth that imports math/rand is a second generator (and
// an interface call per draw on the annealer's hot path).
func TestSeededLoopsUseRNG(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/stitch", "internal/place", "internal/synth"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" || p == "math/rand/v2" {
					t.Errorf("%s: imports %s; draw through internal/rng", fset.Position(imp.Pos()), p)
				}
			}
		}
	}
}

// TestResultSortsTotal: sort.Slice is not stable, and the order it
// leaves tied elements in belongs to the Go release, so in a package
// whose sorts feed results its comparator must be total: its last
// return compares the elements themselves (equal ones are
// interchangeable) or their id fields. A sort whose keys may tie uses
// sort.SliceStable.
func TestResultSortsTotal(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/stitch", "internal/place", "internal/synth", "internal/route", "internal/ml", "internal/partition", "internal/pblock", "internal/dataset"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isPkgSelector(call.Fun, "sort") &&
					call.Fun.(*ast.SelectorExpr).Sel.Name == "Slice" && !totalComparator(call) {
					t.Errorf("%s: sort.Slice may leave ties in release order; end the comparator on the element or its id, or use sort.SliceStable", fset.Position(call.Pos()))
				}
				return true
			})
		}
	}
}

// totalComparator reports whether a sort.Slice call's comparator ends
// on `return s[i] < s[j]` or `return s[i].id < s[j].id` (either
// operator, either order), s being the sorted slice.
func totalComparator(call *ast.CallExpr) bool {
	fn, ok := call.Args[1].(*ast.FuncLit)
	if !ok || len(fn.Body.List) == 0 || len(fn.Type.Params.List) != 1 || len(fn.Type.Params.List[0].Names) != 2 {
		return false
	}
	ret, ok := fn.Body.List[len(fn.Body.List)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	cmp, ok := ret.Results[0].(*ast.BinaryExpr)
	if !ok || (cmp.Op != token.LSS && cmp.Op != token.GTR) {
		return false
	}
	subject := types.ExprString(call.Args[0])
	i, j := fn.Type.Params.List[0].Names[0].Name, fn.Type.Params.List[0].Names[1].Name
	key := func(e ast.Expr, idx string) bool {
		s := types.ExprString(e)
		return s == subject+"["+idx+"]" || s == subject+"["+idx+"].id"
	}
	return key(cmp.X, i) && key(cmp.Y, j) || key(cmp.X, j) && key(cmp.Y, i)
}

// TestCFPolicyOnlyInPBlock: the CF policy has one home, internal/pblock.
// In the non-test Go outside cmd/bench (the benchmark harness composes
// its own block path), a tripwire for a second copy of it:
//
//   - an ordered comparison of an EstSlices field outside pblock.Tiny —
//     a second spelling of the §VIII tiny-block threshold. The one other
//     size window, the maze experiment's sample of 12–600-slice modules,
//     is not that threshold and is named here;
//   - a call of pblock.ImplementPlan outside the serial searches' shared
//     probe step and the one-shot pblock.Implement — a fourth probe loop.
func TestCFPolicyOnlyInPBlock(t *testing.T) {
	allowCompare := map[string]bool{"internal/pblock.Tiny": true, "cmd/experiments.maze": true}
	allowPlan := map[string]bool{"internal/pblock.serial.try": true, "internal/pblock.Implement": true}
	fset := token.NewFileSet()
	libraryGo(t, fset, func(dir string, f *ast.File) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := dir + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = dir + "." + id.Name + "." + fn.Name.Name
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					switch n.Op {
					case token.LSS, token.LEQ, token.GTR, token.GEQ:
						if (isField(n.X, "EstSlices") || isField(n.Y, "EstSlices")) && !allowCompare[name] {
							t.Errorf("%s: EstSlices compared in %s; ask pblock.Tiny", fset.Position(n.Pos()), name)
						}
					}
				case *ast.CallExpr:
					callee := n.Fun
					if sel, ok := callee.(*ast.SelectorExpr); ok {
						callee = sel.Sel
					}
					if id, ok := callee.(*ast.Ident); ok && id.Name == "ImplementPlan" && !allowPlan[name] {
						t.Errorf("%s: ImplementPlan called in %s; probe through the serial searches' step", fset.Position(n.Pos()), name)
					}
				}
				return true
			})
		}
	})
}

// TestCFGridOnlyInPBlock: the CF grid has one home, internal/pblock,
// whose Tick counts it and whose TickOf and Tick.CF convert to and from
// a CF. In the non-test Go outside internal/pblock and cmd/bench (the
// benchmark harness spells its own sweep), a multiplication or division
// by the literal 50 — cf*50, float64(b)/50, math.Round(x*50)/50 — is a
// second copy of the grid. A count of milliseconds is not a CF.
func TestCFGridOnlyInPBlock(t *testing.T) {
	fifty := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		if !ok || (lit.Kind != token.INT && lit.Kind != token.FLOAT) {
			return false
		}
		v, err := strconv.ParseFloat(lit.Value, 64)
		return err == nil && v == 50
	}
	fset := token.NewFileSet()
	libraryGo(t, fset, func(dir string, f *ast.File) {
		if dir == "internal/pblock" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.MUL && b.Op != token.QUO) {
				return true
			}
			for _, pair := range [][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
				if fifty(pair[0]) && !isPkgSelector(pair[1], "time") {
					t.Errorf("%s: CF-grid literal 50; convert through pblock.TickOf and Tick.CF", fset.Position(b.Pos()))
				}
			}
			return true
		})
	})
}

// libraryGo parses every non-test Go file outside cmd/bench, testdata
// and dot directories and hands it to fn with its directory (the root
// package's is "macroflow").
func libraryGo(t *testing.T, fset *token.FileSet, fn func(dir string, f *ast.File)) {
	t.Helper()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "cmd/bench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = "macroflow"
		}
		fn(dir, f)
		return nil
	})
	if err != nil || files < 50 {
		t.Fatalf("scanned %d Go files (%v)", files, err)
	}
}

// isPkgSelector reports whether e selects a name from package pkg.
func isPkgSelector(e ast.Expr, pkg string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg
}

// isField reports whether e selects a field or method named name.
func isField(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// metricLiteral reads a metric name off a registry call's first
// argument: "name", fmt.Sprintf("name.%d", …) or "prefix." + x.
func metricLiteral(e ast.Expr) (string, bool) {
	suffix := ""
	switch v := e.(type) {
	case *ast.CallExpr:
		if len(v.Args) == 0 {
			return "", false
		}
		e = v.Args[0]
	case *ast.BinaryExpr:
		e, suffix = v.X, "*"
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil || !strings.Contains(name, ".") {
		return "", false
	}
	return normalizeMetric(name + suffix), true
}

// normalizeMetric drops inline labels and turns placeholders (<k>, %d)
// into *.
func normalizeMetric(name string) string {
	return placeholder.ReplaceAllString(metricLabels.ReplaceAllString(name, ""), "*")
}

// metricTable reads the names out of the first column of the table that
// follows "**Metrics.**" in DESIGN.md. A cell holds one or more
// back-ticked names; one starting with a dot replaces the last
// component of the name before it.
func metricTable(t *testing.T, design string) map[string]bool {
	_, rest, ok := strings.Cut(design, "**Metrics.**")
	if !ok {
		t.Fatal("DESIGN.md has no **Metrics.** paragraph")
	}
	names := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cell := strings.SplitN(line, "|", 3)[1]
		prev := ""
		for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
			name := m[1]
			if strings.HasPrefix(name, ".") && prev != "" {
				name = prev[:strings.LastIndex(prev, ".")] + name
			}
			prev = name
			names[normalizeMetric(name)] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("DESIGN.md §8's metric table is empty")
	}
	return names
}

// resolvesTest reports whether a documented test name is in the tree; a
// trailing * asks for a prefix match.
func resolvesTest(tests map[string]bool, tok string) bool {
	prefix, wild := strings.CutSuffix(tok, "*")
	if !wild {
		return tests[tok]
	}
	for name := range tests {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// docPath reads a back-ticked span as a repo-relative path: its first
// field, if that starts with one of docRoots, without a trailing
// :line reference or punctuation. Spans with a placeholder in the path
// (<name>, {a,b}, …) are not paths to check.
func docPath(span string) (string, bool) {
	fields := strings.Fields(span)
	if len(fields) == 0 {
		return "", false
	}
	p := strings.TrimPrefix(fields[0], "./")
	rooted := false
	for _, root := range docRoots {
		rooted = rooted || strings.HasPrefix(p, root)
	}
	if !rooted || strings.ContainsAny(p, "<>{}…") {
		return "", false
	}
	if i := strings.Index(p, ":"); i >= 0 {
		p = p[:i]
	}
	return strings.TrimRight(p, "/.,;"), true
}

// gitignored returns a matcher for the repo's .gitignore entries, read
// as path prefixes from the root.
func gitignored(t *testing.T) func(string) bool {
	data, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	var entries []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.Trim(strings.TrimSpace(line), "/")
		if line != "" && !strings.HasPrefix(line, "#") {
			entries = append(entries, line)
		}
	}
	return func(p string) bool {
		for _, e := range entries {
			if p == e || strings.HasPrefix(p, e+"/") {
				return true
			}
		}
		return false
	}
}
