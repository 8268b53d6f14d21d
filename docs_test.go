package macroflow

import (
	"go/ast"
	"go/parser"
	"go/token"
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
//     Add / Counter / Observe / SetGauge / BucketHist are the same set.
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
	registry := map[string]bool{"Add": true, "Counter": true, "Observe": true, "SetGauge": true, "BucketHist": true}
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
