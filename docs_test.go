package mrbc

// The documents cite the code by name, and CI hands hand-kept test
// patterns to `go test -run`. Neither is checked by the compiler, and
// `go test -run` exits 0 when its pattern matches nothing, so both go
// stale silently. The two tests here resolve every name against the
// declarations of this module and of benchmark/*.go, which they read
// but do not check.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// citingDocs are the documents whose inline code names must resolve.
// benchmark/README.md is not among them: it is the benchmark's manual,
// kept in step with benchmark/.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// historyHeading starts the one section of a document that may name
// code that no longer exists.
const historyHeading = "## History"

// TestDocsNameLiveCode resolves every inline-backticked code name in
// citingDocs outside fenced blocks and the History section:
//   - a repo path (internal/…, cmd/…, *.go, *.golden, …) must be the
//     suffix of an existing path, and file.go:N needs N lines;
//   - pkg.Name, Type.Member and pkg.Type.Member need a declaration; a
//     qualifier that is no repo package resolves in GOROOT's source of
//     the standard package the module imports under that name;
//   - a snake_case name (a metric, a trace field) must occur in a
//     string literal;
//   - any other name with both upper and lower case letters needs a
//     declaration, or must be part of a Test, Benchmark or Fuzz name,
//     the way -run fragments are written.
func TestDocsNameLiveCode(t *testing.T) {
	idx := loadRepoIndex(t)
	for _, doc := range citingDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		spans, err := codeSpans(string(src))
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for _, sp := range spans {
			for _, problem := range idx.checkSpan(sp.text) {
				t.Errorf("%s:%d: `%s`: %s", doc, sp.line, oneLine(sp.text), problem)
			}
		}
	}
}

// TestCIRunPatternsSelectTests parses every `go test` command in the CI
// workflow and the verify notes and requires each |-alternative of its
// -run pattern to match a Test or Fuzz function of one of its packages,
// each of its -bench pattern a Benchmark and each of its -fuzz pattern
// a Fuzz function. A -run pattern beside -bench or -fuzz only keeps the
// tests out, so it may select nothing.
func TestCIRunPatternsSelectTests(t *testing.T) {
	idx := loadRepoIndex(t)
	var cmds []goTestCmd
	for _, file := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, goTestCommands(file, string(src), strings.HasSuffix(file, ".md"))...)
	}
	patterns := 0
	for _, c := range cmds {
		problems, n := idx.checkGoTest(c)
		patterns += n
		for _, p := range problems {
			t.Errorf("%s:%d: %s: %s", c.file, c.line, strings.Join(c.words, " "), p)
		}
	}
	if patterns == 0 {
		t.Fatal("found no go test pattern to check; the command parser is broken")
	}
	t.Logf("checked %d patterns in %d go test commands", patterns, len(cmds))
}

// ---- the declarations ----

type typeDecl struct {
	members   map[string]string // field or method → the field's type name ("" for a method)
	embedded  []string          // embedded type names, whose members are promoted
	isPresent bool              // a type spec declares it (not only methods)
}

type pkgDecls struct {
	top   map[string]bool
	types map[string]*typeDecl
}

func newPkgDecls() *pkgDecls {
	return &pkgDecls{top: map[string]bool{}, types: map[string]*typeDecl{}}
}

func (p *pkgDecls) typ(name string) *typeDecl {
	td := p.types[name]
	if td == nil {
		td = &typeDecl{members: map[string]string{}}
		p.types[name] = td
	}
	return td
}

type repoIndex struct {
	byName    map[string][]*pkgDecls // package name → packages
	allPkgs   []*pkgDecls
	declared  map[string]bool     // every declared identifier, locals included
	testFuncs map[string][]string // directory → Test/Benchmark/Fuzz functions
	strs      strings.Builder     // string literals and struct tags, NUL-separated
	imports   map[string]string   // import name → standard-library path
	paths     map[string]int      // repo-relative file or directory → line count (-1: directory)

	stdlib map[string]*stdlibSrc // import path → sources
}

var (
	repoIndexOnce sync.Once
	repoIndexVal  *repoIndex
	repoIndexErr  error
)

func loadRepoIndex(t *testing.T) *repoIndex {
	t.Helper()
	repoIndexOnce.Do(func() { repoIndexVal, repoIndexErr = buildRepoIndex() })
	if repoIndexErr != nil {
		t.Fatal(repoIndexErr)
	}
	return repoIndexVal
}

func buildRepoIndex() (*repoIndex, error) {
	idx := &repoIndex{
		byName:    map[string][]*pkgDecls{},
		declared:  map[string]bool{},
		testFuncs: map[string][]string{},
		imports:   map[string]string{},
		paths:     map[string]int{},
		stdlib:    map[string]*stdlibSrc{},
	}
	pkgByDir := map[string]*pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			if p != "." && (d.Name() == ".git" || strings.HasPrefix(d.Name(), ".bench_")) {
				return filepath.SkipDir
			}
			idx.paths[p] = -1
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		idx.paths[p] = strings.Count(string(src), "\n")
		dir := path.Dir(p)
		if !strings.HasSuffix(p, ".go") || strings.Contains(p, "/testdata/") ||
			(strings.HasPrefix(p, "benchmark/") && dir != "benchmark") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := pkgByDir[dir+" "+f.Name.Name]
		if pkg == nil {
			pkg = newPkgDecls()
			pkgByDir[dir+" "+f.Name.Name] = pkg
			idx.byName[f.Name.Name] = append(idx.byName[f.Name.Name], pkg)
			idx.allPkgs = append(idx.allPkgs, pkg)
		}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(ip, "mrbc") {
				continue
			}
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			idx.imports[name] = ip
		}
		collectDecls(f, pkg)
		idx.collectFile(f, dir, strings.HasSuffix(p, "_test.go"))
		return nil
	})
	return idx, err
}

// collectDecls records f's top-level declarations, types, fields and
// methods in pkg.
func collectDecls(f *ast.File, pkg *pkgDecls) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || len(d.Recv.List) == 0 {
				pkg.top[d.Name.Name] = true
				continue
			}
			if recv := baseTypeName(d.Recv.List[0].Type); recv != "" {
				pkg.typ(recv).members[d.Name.Name] = ""
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					pkg.top[s.Name.Name] = true
					td := pkg.typ(s.Name.Name)
					td.isPresent = true
					switch tt := s.Type.(type) {
					case *ast.StructType:
						addFields(td, tt.Fields)
					case *ast.InterfaceType:
						addFields(td, tt.Methods)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						pkg.top[n.Name] = true
					}
				}
			}
		}
	}
}

func addFields(td *typeDecl, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, fld := range fl.List {
		tn := baseTypeName(fld.Type)
		if len(fld.Names) == 0 {
			if tn != "" {
				td.members[tn] = tn
				td.embedded = append(td.embedded, tn)
			}
			continue
		}
		for _, n := range fld.Names {
			td.members[n.Name] = tn
		}
	}
}

// baseTypeName is the name a type expression is declared under: T for
// T, *T, pkg.T, T[P] and []T.
func baseTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return baseTypeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return baseTypeName(x.X)
	case *ast.IndexListExpr:
		return baseTypeName(x.X)
	case *ast.ArrayType:
		return baseTypeName(x.Elt)
	}
	return ""
}

// collectFile records every identifier f declares (locals and
// parameters included), its test functions and its string literals.
func (idx *repoIndex) collectFile(f *ast.File, dir string, isTest bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			idx.declared[x.Name.Name] = true
			if isTest && x.Recv == nil {
				for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
					if strings.HasPrefix(x.Name.Name, prefix) {
						idx.testFuncs[dir] = append(idx.testFuncs[dir], x.Name.Name)
					}
				}
			}
		case *ast.TypeSpec:
			idx.declared[x.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range x.Names {
				idx.declared[id.Name] = true
			}
		case *ast.Field:
			for _, id := range x.Names {
				idx.declared[id.Name] = true
			}
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for _, e := range x.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						idx.declared[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if x.Tok == token.DEFINE {
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if id, ok := e.(*ast.Ident); ok {
						idx.declared[id.Name] = true
					}
				}
			}
		case *ast.LabeledStmt:
			idx.declared[x.Label.Name] = true
		case *ast.BasicLit:
			if x.Kind == token.STRING {
				if s, err := strconv.Unquote(x.Value); err == nil {
					idx.strs.WriteString(s)
					idx.strs.WriteByte(0)
				}
			}
		}
		return true
	})
}

// stdlibSrc is a standard-library package's non-test sources, parsed
// only as far as the names looked up in it need: a file that declares a
// name contains it.
type stdlibSrc struct {
	unparsed map[string][]byte
	decls    *pkgDecls
}

// stdlibPkg returns the declarations of the standard-library package
// importPath, parsing each file that mentions one of names.
func (idx *repoIndex) stdlibPkg(importPath string, names []string) (*pkgDecls, error) {
	src := idx.stdlib[importPath]
	if src == nil {
		root := runtime.GOROOT()
		if _, err := os.Stat(filepath.Join(root, "src")); err != nil {
			root = build.Default.GOROOT
		}
		dir := filepath.Join(root, "src", filepath.FromSlash(importPath))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("reading GOROOT source of %q: %v", importPath, err)
		}
		src = &stdlibSrc{unparsed: map[string][]byte{}, decls: newPkgDecls()}
		for _, e := range entries {
			if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					return nil, err
				}
				src.unparsed[name] = b
			}
		}
		idx.stdlib[importPath] = src
	}
	fset := token.NewFileSet()
	for name, b := range src.unparsed {
		for _, n := range names {
			if bytes.Contains(b, []byte(n)) {
				f, err := parser.ParseFile(fset, name, b, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				collectDecls(f, src.decls)
				delete(src.unparsed, name)
				break
			}
		}
	}
	return src.decls, nil
}

// ---- resolution ----

// member reports whether typ (declared in one of pkgs, or in any repo
// package when pkgs is nil) has name as a field or method, directly or
// through an embedded type, and returns the field's type name.
func (idx *repoIndex) member(pkgs []*pkgDecls, typ, name string, depth int) (string, bool) {
	if depth > 4 {
		return "", false
	}
	if pkgs == nil {
		pkgs = idx.allPkgs
	}
	for _, p := range pkgs {
		td := p.types[typ]
		if td == nil {
			continue
		}
		if ft, ok := td.members[name]; ok {
			return ft, true
		}
		for _, emb := range td.embedded {
			if ft, ok := idx.member(nil, emb, name, depth+1); ok {
				return ft, true
			}
			if ft, ok := idx.member([]*pkgDecls{p}, emb, name, depth+1); ok {
				return ft, true
			}
		}
	}
	return "", false
}

func (idx *repoIndex) isType(name string) bool {
	for _, p := range idx.allPkgs {
		if td := p.types[name]; td != nil && td.isPresent {
			return true
		}
	}
	return false
}

// resolveQualified resolves pkg.Name[.Member…] or Type.Member[.Member…].
func (idx *repoIndex) resolveQualified(parts []string) string {
	var pkgs []*pkgDecls
	rest := parts
	if repo, ok := idx.byName[parts[0]]; ok {
		pkgs, rest = repo, parts[1:]
	} else if ip, ok := idx.imports[parts[0]]; ok {
		p, err := idx.stdlibPkg(ip, parts[1:])
		if err != nil {
			return err.Error()
		}
		pkgs, rest = []*pkgDecls{p}, parts[1:]
	} else if !idx.isType(parts[0]) {
		return fmt.Sprintf("%q is neither a package this module imports nor a declared type", parts[0])
	}
	if pkgs != nil {
		found := false
		for _, p := range pkgs {
			found = found || p.top[rest[0]]
		}
		if !found {
			return fmt.Sprintf("package %s declares no %s", parts[0], rest[0])
		}
	}
	typ := rest[0]
	for _, m := range rest[1:] {
		ft, ok := idx.member(pkgs, typ, m, 0)
		if !ok {
			return fmt.Sprintf("type %s has no field or method %s", typ, m)
		}
		typ, pkgs = ft, nil
	}
	return ""
}

func (idx *repoIndex) isTestFragment(name string) bool {
	for _, names := range idx.testFuncs {
		for _, n := range names {
			if strings.Contains(n, name) {
				return true
			}
		}
	}
	return false
}

func (idx *repoIndex) inStringLiteral(name string) bool {
	return strings.Contains(idx.strs.String(), name)
}

// resolvePath resolves a repo path, a glob over one, or file.go:N.
func (idx *repoIndex) resolvePath(word string) string {
	p, lineRef := word, 0
	if m := lineSuffix.FindStringSubmatch(p); m != nil {
		p = p[:len(p)-len(m[0])]
		last := m[1]
		if m[2] != "" {
			last = m[2] // file.go:N–M needs M lines
		}
		lineRef, _ = strconv.Atoi(last)
	}
	p = strings.TrimPrefix(p, "./")
	p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
	if p == "" || p == "." {
		return ""
	}
	segs := strings.Count(p, "/") + 1
	matched := false
	for rp, lines := range idx.paths {
		rs := strings.Split(rp, "/")
		if len(rs) < segs {
			continue
		}
		if ok, _ := path.Match(p, strings.Join(rs[len(rs)-segs:], "/")); !ok {
			continue
		}
		matched = true
		if lineRef == 0 || lineRef <= lines {
			return ""
		}
	}
	if matched {
		return fmt.Sprintf("no file matching %s has %d lines", p, lineRef)
	}
	return "no such path in the repository"
}

var (
	lineSuffix  = regexp.MustCompile(`:(\d+)(?:[–-](\d+))?$`)
	wordTrim    = "`'\"()[]{},;:!?<>"
	identTok    = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*`)
	snakeTok    = regexp.MustCompile(`^[a-z][a-z0-9]*(?:[._][a-z0-9]+)*$`)
	pathExt     = regexp.MustCompile(`\.(go|golden|md|json|yml|sh|txt|mod)(:\d+(?:[–-]\d+)?)?$`)
	repoTopDirs = []string{"internal/", "cmd/", "examples/", "benchmark/", ".github/", ".claude/", "testdata/"}
)

func isRepoPath(w string) bool {
	w = strings.TrimPrefix(w, "./")
	if w == "..." || pathExt.MatchString(w) {
		return true
	}
	for _, d := range repoTopDirs {
		if strings.HasPrefix(w, d) {
			return true
		}
	}
	return false
}

// checkSpan returns what in one code span does not resolve.
func (idx *repoIndex) checkSpan(text string) []string {
	var problems []string
	for _, w := range strings.Fields(text) {
		if strings.HasPrefix(w, "-") {
			// A flag: only its value can name anything.
			_, v, ok := strings.Cut(w, "=")
			if !ok {
				continue
			}
			w = v
		}
		if strings.ContainsAny(w, "…<") {
			// An elision or a <placeholder> pattern names no one thing.
			continue
		}
		w = strings.Trim(w, wordTrim)
		if w == "" || strings.HasPrefix(w, "/") || strings.Contains(w, "://") {
			continue // an absolute path or a URL is outside the repository
		}
		if isRepoPath(w) {
			if p := idx.resolvePath(w); p != "" {
				problems = append(problems, fmt.Sprintf("%s: %s", w, p))
			}
			continue
		}
		for _, tok := range identTok.FindAllString(w, -1) {
			if p := idx.checkToken(tok); p != "" {
				problems = append(problems, fmt.Sprintf("%s: %s", tok, p))
			}
		}
	}
	return problems
}

func (idx *repoIndex) checkToken(tok string) string {
	hasUpper := strings.ToLower(tok) != tok
	hasLower := strings.ToUpper(tok) != tok
	switch {
	case snakeTok.MatchString(tok) && strings.Contains(tok, "_"):
		if !idx.inStringLiteral(tok) {
			return "no string literal contains it"
		}
	case strings.Contains(tok, "."):
		parts := strings.Split(tok, ".")
		if hasUpper {
			return idx.resolveQualified(parts)
		}
		if idx.byName[parts[0]] == nil && idx.imports[parts[0]] == "" && !idx.isType(parts[0]) {
			return "" // lower-case dotted prose (e.g. "i.e"), not code
		}
		// pkg.name is a declaration or a metric (dgalois.exchanges).
		if p := idx.resolveQualified(parts); p != "" && !idx.inStringLiteral(tok) {
			return p
		}
	case hasUpper && hasLower:
		if !idx.declared[tok] && !idx.isTestFragment(tok) {
			return "not declared, and no part of a Test, Benchmark or Fuzz name"
		}
	}
	return ""
}

// ---- markdown ----

type codeSpan struct {
	line int
	text string
}

// codeSpans returns the inline code spans of a markdown document,
// skipping fenced blocks and the History section.
func codeSpans(doc string) ([]codeSpan, error) {
	var out []codeSpan
	var para []string // lines of the current paragraph
	paraStart := 0
	flush := func() {
		if len(para) > 0 {
			out = append(out, spansOf(para, paraStart)...)
		}
		para = nil
	}
	inFence, inHistory, histories := false, false, 0
	for i, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			flush()
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		if strings.HasPrefix(line, "#") {
			flush()
			level := len(line) - len(strings.TrimLeft(line, "#"))
			if trimmed == historyHeading {
				histories++
				inHistory = true
				continue
			}
			if level <= 2 {
				inHistory = false
			}
		}
		if inHistory {
			continue
		}
		if trimmed == "" {
			flush()
			continue
		}
		if len(para) == 0 {
			paraStart = i + 1
		}
		para = append(para, line)
	}
	flush()
	if inFence {
		return nil, fmt.Errorf("unterminated fenced block")
	}
	if histories > 1 {
		return nil, fmt.Errorf("%d %q headings; a document has at most one", histories, historyHeading)
	}
	return out, nil
}

// spansOf splits one paragraph into backtick code spans; a span may
// cross a line break, which reads as a space.
func spansOf(lines []string, first int) []codeSpan {
	var out []codeSpan
	text := strings.Join(lines, "\n")
	for i := 0; i < len(text); {
		if text[i] != '`' {
			i++
			continue
		}
		n := 0
		for i+n < len(text) && text[i+n] == '`' {
			n++
		}
		fence := strings.Repeat("`", n)
		end := -1
		for j := i + n; j < len(text); {
			k := strings.Index(text[j:], fence)
			if k < 0 {
				break
			}
			k += j
			m := 0
			for k+m < len(text) && text[k+m] == '`' {
				m++
			}
			if m == n {
				end = k
				break
			}
			j = k + m
		}
		if end < 0 {
			i += n
			continue
		}
		out = append(out, codeSpan{
			line: first + strings.Count(text[:i], "\n"),
			text: strings.TrimSpace(strings.ReplaceAll(text[i+n:end], "\n", " ")),
		})
		i = end + n
	}
	return out
}

func oneLine(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

// ---- go test commands ----

type goTestCmd struct {
	file  string
	line  int
	words []string
}

// goTestCommands finds the `go test` commands of a file: every line of
// a workflow or of a fenced block, and, in markdown, every inline code
// span.
func goTestCommands(file, src string, markdown bool) []goTestCmd {
	type piece struct {
		line int
		text string
	}
	var pieces []piece
	lines := strings.Split(src, "\n")
	inFence := false
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		if markdown && (strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~")) {
			inFence = !inFence
			continue
		}
		if !markdown || inFence {
			pieces = append(pieces, piece{i + 1, line})
		}
	}
	if markdown {
		spans, _ := codeSpans(src)
		for _, sp := range spans {
			pieces = append(pieces, piece{sp.line, sp.text})
		}
	}
	var cmds []goTestCmd
	for _, pc := range pieces {
		words := shellWords(pc.text)
		for start := 0; start < len(words); {
			end := start
			for end < len(words) && !isShellSeparator(words[end]) {
				end++
			}
			cmd := words[start:end]
			for i := 0; i+1 < len(cmd); i++ {
				if cmd[i] == "go" && cmd[i+1] == "test" {
					cmds = append(cmds, goTestCmd{file, pc.line, cmd[i:]})
					break
				}
			}
			start = end + 1
		}
	}
	return cmds
}

func isShellSeparator(w string) bool {
	switch w {
	case "&&", "||", ";", "|", "#":
		return true
	}
	return false
}

// shellWords splits a command line on unquoted blanks, dropping quotes.
// A comment ends the line; quoted separators stay part of a word.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case c == '#' && !inWord:
			words = append(words, "#")
			return words
		case c == ';' || c == '|' || c == '&':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
			sep := string(c)
			if i+1 < len(s) && s[i+1] == c && c != ';' {
				sep += string(c)
				i++
			}
			words = append(words, sep)
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// goTestValueFlags are the go test and test-binary flags that take a
// value as the next word. The value of one missing here reads as a
// package, which fails loudly.
var goTestValueFlags = map[string]bool{
	"run": true, "bench": true, "fuzz": true, "count": true, "timeout": true, "benchtime": true,
	"fuzztime": true, "cpuprofile": true, "memprofile": true, "o": true, "C": true,
}

// checkGoTest checks one command's patterns and returns its problems
// and how many patterns it held.
func (idx *repoIndex) checkGoTest(c goTestCmd) ([]string, int) {
	flags := map[string]string{}
	var pkgs []string
	for i := 2; i < len(c.words); i++ {
		w := c.words[i]
		if !strings.HasPrefix(w, "-") {
			pkgs = append(pkgs, w)
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(w, "-"), "=")
		if !hasVal && goTestValueFlags[name] {
			if i+1 == len(c.words) {
				continue // prose naming a flag, not a command
			}
			i++
			val = c.words[i]
		}
		flags[name] = val
	}
	root := "."
	if d, ok := flags["C"]; ok {
		root = d
	}
	dirs := idx.packageDirs(root, pkgs)
	if len(dirs) == 0 {
		return []string{fmt.Sprintf("packages %v name no directory with tests", pkgs)}, 0
	}
	var problems []string
	n := 0
	check := func(flag string, prefixes ...string) {
		pat, ok := flags[flag]
		if !ok {
			return
		}
		n++
		first := pat
		if i := topLevelIndex(pat, '/'); i >= 0 {
			first = pat[:i]
		}
		for _, alt := range splitTopLevel(first, '|') {
			re, err := regexp.Compile(alt)
			if err != nil {
				problems = append(problems, fmt.Sprintf("-%s alternative %q: %v", flag, alt, err))
				continue
			}
			if !idx.anyTestMatches(dirs, re, prefixes) {
				problems = append(problems, fmt.Sprintf("-%s alternative %q matches no %s function in %s",
					flag, alt, strings.Join(prefixes, "/"), strings.Join(dirs, " ")))
			}
		}
	}
	_, bench := flags["bench"]
	_, fuzz := flags["fuzz"]
	if !bench && !fuzz {
		check("run", "Test", "Fuzz")
	}
	check("bench", "Benchmark")
	check("fuzz", "Fuzz")
	return problems, n
}

// packageDirs expands package patterns (./x, ./x/..., ./...) to the
// directories under root that hold test functions.
func (idx *repoIndex) packageDirs(root string, pkgs []string) []string {
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		p = path.Clean(path.Join(root, strings.TrimSuffix(p, "/")))
		recursive := false
		if p == "..." || strings.HasSuffix(p, "/...") {
			p, recursive = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/"), true
			if p == "" {
				p = "."
			}
		}
		for dir := range idx.testFuncs {
			within := dir == p
			if recursive {
				within = p == "." || dir == p || strings.HasPrefix(dir, p+"/")
				// ./... stays inside its module: benchmark/ is its own.
				if root == "." && strings.HasPrefix(dir, "benchmark") && !strings.HasPrefix(p, "benchmark") {
					within = false
				}
			}
			if within {
				seen[dir] = true
			}
		}
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

func (idx *repoIndex) anyTestMatches(dirs []string, re *regexp.Regexp, prefixes []string) bool {
	for _, d := range dirs {
		for _, name := range idx.testFuncs[d] {
			for _, pre := range prefixes {
				if strings.HasPrefix(name, pre) && re.MatchString(name) {
					return true
				}
			}
		}
	}
	return false
}

// splitTopLevel splits a regexp at sep outside groups and classes.
func splitTopLevel(s string, sep byte) []string {
	var out []string
	for {
		i := topLevelIndex(s, sep)
		if i < 0 {
			return append(out, s)
		}
		out = append(out, s[:i])
		s = s[i+1:]
	}
}

func topLevelIndex(s string, sep byte) int {
	depth, inClass := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			i++
		case inClass:
			inClass = c != ']'
		case c == '[':
			inClass = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			return i
		}
	}
	return -1
}
