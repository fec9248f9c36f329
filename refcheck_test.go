package netscatter

// The production-reference check: every package-level func, method,
// type, var and const in non-test code must be referenced by some
// non-test code. A declaration only tests reach belongs in a _test.go
// file (or, for shared test support, in internal/simtest); one nothing
// reaches belongs nowhere. The check type-checks every non-test package
// of the module for the host build — nsbench's benchmark module
// included, since it lives under the same path prefix and its
// references keep code alive — with nothing but the standard library's
// go/build, go/parser, go/types and go/importer.
//
// Run it alone with:
//
//	go test -run TestProductionCodeReferenced .

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// refAllowlist names the declarations that stay in production files
// although only tests reach them, each with the test or tool that needs
// it there. Keys are "<package>.<Name>" or "<package>.<Type>.<Method>",
// the package named by its import path below the module.
var refAllowlist = map[string]string{
	"internal/chirp.EvalShifted": "the closed-form chirp model that chirp's, synth's, core's and air's " +
		"internal tests check the modulator, the synthesizer and the receive paths against; " +
		"internal/simtest imports those packages, so it cannot live there",
	"internal/dsp.ScratchStats": "the scratch free list's counters, read by dsp's scratch tests and by " +
		"core's TestScratchRetentionBounded across 32 decoders",
	"internal/dsp.BinPlan.Contains": "plan membership for the window-plan gates, which compare exactly a " +
		"plan's bins: dsp's TestBinPlan* tests, chirp's TestSpectraBatchBitExact and " +
		"TestDemodulatorBatchCallsConcurrent, core's TestDecodeFrameSpectraWindowedSumMatchesFullSum and " +
		"sim's TestSoftCombinedSpectraOracle",
	"internal/radio.CorrelatedFader.SetDeepFade": "the fault-injection hook of sim's " +
		"TestTrajectoryDeepFadeRecovery and radio's TestCorrelatedFaderSetDeepFade",
	"internal/serve.startedWriter.Unwrap": "http.ResponseController reaches the connection through it " +
		"(net/http/pprof sets write deadlines that way behind the panic middleware); the interface it " +
		"satisfies is unexported in net/http",
}

// refExemptPackages are packages whose declarations are not checked and
// whose references keep nothing alive: support code only tests import.
var refExemptPackages = map[string]bool{
	"internal/simtest": true,
}

func TestProductionCodeReferenced(t *testing.T) {
	rep, err := scanReferences(&build.Default, ".", "netscatter", refAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, f := range rep.Unreferenced {
		lines += f.Lines
		t.Errorf("%s: %s %s (%d lines) is referenced by no non-test code", f.Pos, f.Kind, f.Key, f.Lines)
	}
	if n := len(rep.Unreferenced); n > 0 {
		t.Errorf("%d unreferenced declarations, %d lines: delete them, move them into _test.go files, "+
			"or allowlist one in refAllowlist with the test that needs it", n, lines)
	}
	for _, key := range rep.StaleAllow {
		t.Errorf("refAllowlist entry %s names no unreferenced declaration: remove it", key)
	}
}

// refFinding is one unreferenced declaration.
type refFinding struct {
	Pos   token.Position
	Key   string // as in refAllowlist
	Kind  string // func, method, type, var or const
	Lines int    // doc comment included
}

type refReport struct {
	Unreferenced []refFinding
	StaleAllow   []string // allowlist keys that match no unreferenced declaration
}

// scanReferences type-checks every non-test package in the tree under
// root, whose import path is modPath, for ctxt's build and reports the
// package-level declarations no non-test code outside their own
// declaration references. Exempt are main and init, methods that
// satisfy an interface the module uses (one declared in the module, in
// a package it imports, or written inline in its code), the exported
// declarations of the root package (the public facade),
// refExemptPackages, and allow's entries.
func scanReferences(ctxt *build.Context, root, modPath string, allow map[string]string) (refReport, error) {
	l := &refLoader{
		ctxt: ctxt,
		fset: token.NewFileSet(),
		root: root,
		mod:  modPath,
		std:  importer.Default(),
		pkgs: map[string]*refPkg{},
	}
	if err := l.walk(root, modPath); err != nil {
		return refReport{}, err
	}

	// A package's references reach only itself and the packages it
	// imports, which l.order lists before it: one pass collects each
	// package's declarations and then marks what it references — every
	// identifier use outside the declaration it names, and every ·name
	// symbol an assembly file of the package uses.
	decls := map[types.Object]*refDecl{}
	var order []*refDecl
	for _, p := range l.order {
		if refExemptPackages[l.rel(p.path)] {
			continue
		}
		for _, d := range l.declsOf(p) {
			decls[d.obj] = d
			order = append(order, d)
		}
		for id, obj := range p.info.Uses {
			if d := decls[refOrigin(obj)]; d != nil && (id.Pos() < d.pos || id.Pos() >= d.end) {
				d.used = true
			}
		}
		for _, sym := range p.asmSyms {
			if d := decls[p.types.Scope().Lookup(sym)]; d != nil {
				d.used = true
			}
		}
	}

	ifaces := l.interfaces()
	var rep refReport
	matched := map[string]bool{}
	for _, d := range order {
		if d.used || d.exempt || refSatisfies(d.obj, ifaces) {
			continue
		}
		if _, ok := allow[d.key]; ok {
			matched[d.key] = true
			continue
		}
		start, end := l.fset.Position(d.pos), l.fset.Position(d.end)
		rep.Unreferenced = append(rep.Unreferenced, refFinding{
			Pos: start, Key: d.key, Kind: d.kind, Lines: end.Line - start.Line + 1,
		})
	}
	for key := range allow {
		if !matched[key] {
			rep.StaleAllow = append(rep.StaleAllow, key)
		}
	}
	sort.Slice(rep.Unreferenced, func(i, j int) bool {
		a, b := rep.Unreferenced[i].Pos, rep.Unreferenced[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	sort.Strings(rep.StaleAllow)
	return rep, nil
}

// refLoader type-checks the module's packages from source, in import
// order, and everything else from the toolchain's export data.
type refLoader struct {
	ctxt      *build.Context
	fset      *token.FileSet
	root, mod string
	std       types.Importer
	pkgs      map[string]*refPkg // by import path; nil while being checked
	order     []*refPkg
}

type refPkg struct {
	path    string
	files   []*ast.File
	asmSyms []string
	types   *types.Package
	info    *types.Info
}

type refDecl struct {
	obj      types.Object
	key      string
	kind     string
	pos, end token.Pos // the whole declaration, doc comment included
	exempt   bool
	used     bool
}

// rel is an import path below the module; the root package keeps the
// module path.
func (l *refLoader) rel(path string) string {
	if path == l.mod {
		return path
	}
	return strings.TrimPrefix(path, l.mod+"/")
}

// walk checks the package in dir, whose import path is path, and in
// every directory under it, skipping testdata and names starting with
// "." or "_" as the go command does.
func (l *refLoader) walk(dir, path string) error {
	ents, err := l.readDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() || e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_") {
			continue
		}
		if err := l.walk(l.join(dir, e.Name()), path+"/"+e.Name()); err != nil {
			return err
		}
	}
	_, err = l.load(path)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil
	}
	return err
}

func (l *refLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *refLoader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

var asmSymbol = regexp.MustCompile(`·(\w+)`)

func (l *refLoader) load(path string) (*refPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := l.root
	if path != l.mod {
		dir = l.join(append([]string{l.root}, strings.Split(l.rel(path), "/")...)...)
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	p := &refPkg{path: path}
	for _, name := range bp.GoFiles {
		src, err := l.readFile(l.join(dir, name))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, l.join(dir, name), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	for _, name := range bp.SFiles {
		src, err := l.readFile(l.join(dir, name))
		if err != nil {
			return nil, err
		}
		for _, m := range asmSymbol.FindAllSubmatch(src, -1) {
			p.asmSyms = append(p.asmSyms, string(m[1]))
		}
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", l.ctxt.GOARCH)}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// declsOf lists p's package-level declarations.
func (l *refLoader) declsOf(p *refPkg) []*refDecl {
	var out []*refDecl
	add := func(id *ast.Ident, kind string, span ast.Node, doc *ast.CommentGroup) {
		obj := p.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		key, recv := l.rel(p.path)+"."+id.Name, ""
		if fn, ok := obj.(*types.Func); ok {
			if recv = refRecvName(fn); recv != "" {
				key = l.rel(p.path) + "." + recv + "." + id.Name
			}
		}
		d := &refDecl{
			obj: obj, key: key, kind: kind, pos: span.Pos(), end: span.End(),
			// The root package's exports are the public facade.
			exempt: p.path == l.mod && obj.Exported() && (recv == "" || token.IsExported(recv)),
		}
		if doc != nil {
			d.pos = doc.Pos()
		}
		out = append(out, d)
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && (decl.Name.Name == "init" || decl.Name.Name == "main" && p.types.Name() == "main") {
					continue
				}
				kind := "func"
				if decl.Recv != nil {
					kind = "method"
				}
				add(decl.Name, kind, decl, decl.Doc)
			case *ast.GenDecl:
				// A lone spec spans its whole declaration; a spec in a
				// parenthesized group spans itself, with its own doc.
				for _, spec := range decl.Specs {
					span, doc := ast.Node(decl), decl.Doc
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if decl.Lparen.IsValid() {
							span, doc = spec, spec.Doc
						}
						add(spec.Name, "type", span, doc)
					case *ast.ValueSpec:
						if decl.Lparen.IsValid() {
							span, doc = spec, spec.Doc
						}
						for _, name := range spec.Names {
							add(name, decl.Tok.String(), span, doc)
						}
					}
				}
			}
		}
	}
	return out
}

// interfaces gathers, by method name, every interface the module uses:
// error, the interfaces the module declares or writes inline, and the
// exported interfaces of the packages it imports — a value handed to
// fmt, encoding/json or net/http reaches its methods through those.
func (l *refLoader) interfaces() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	addScope := func(pkg *types.Package, exportedOnly bool) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && (tn.Exported() || !exportedOnly) {
				addIface(tn.Type())
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, p := range l.order {
		addScope(p.types, false)
		for _, imp := range p.types.Imports() {
			addScope(imp, true)
		}
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	return byMethod
}

// refSatisfies reports whether obj is a method some interface in ifaces
// holds its receiver type to.
func refSatisfies(obj types.Object, ifaces map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

func (l *refLoader) join(elem ...string) string {
	if l.ctxt.JoinPath != nil {
		return l.ctxt.JoinPath(elem...)
	}
	return filepath.Join(elem...)
}

func (l *refLoader) readDir(dir string) ([]fs.FileInfo, error) {
	if l.ctxt.ReadDir != nil {
		return l.ctxt.ReadDir(dir)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	infos := make([]fs.FileInfo, 0, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

func (l *refLoader) readFile(name string) ([]byte, error) {
	if l.ctxt.OpenFile == nil {
		return os.ReadFile(name)
	}
	r, err := l.ctxt.OpenFile(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// refOrigin maps an instantiated generic function, method or field to
// the object its declaration defines.
func refOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// refRecvName is the name of fn's receiver type, "" for a plain func.
func refRecvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// TestScanReferencesCases runs the check over small in-memory modules:
// what it must report and what it must let pass.
func TestScanReferencesCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string // path below the module root → source
		want  []string          // keys of the unreferenced declarations
	}{{
		name: "unreferenced exported func",
		files: map[string]string{
			"a/a.go":        "package a\n\nfunc Used() {}\n\nfunc Unused() {}\n",
			"cmd/x/main.go": "package main\n\nimport \"m/a\"\n\nfunc main() { a.Used() }\n",
		},
		want: []string{"a.Unused"},
	}, {
		name: "unexported func only a test file calls",
		files: map[string]string{
			"a/a.go":      "package a\n\nfunc Used() {}\n\nfunc helper() int { return 1 }\n",
			"a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestHelper(t *testing.T) { _ = helper() }\n",
			"main.go":     "package main\n\nimport \"m/a\"\n\nfunc main() { a.Used() }\n",
		},
		want: []string{"a.helper"},
	}, {
		name: "unused package var",
		files: map[string]string{
			"a/a.go":  "package a\n\nvar counter int\n\nfunc Used() {}\n",
			"main.go": "package main\n\nimport \"m/a\"\n\nfunc main() { a.Used() }\n",
		},
		want: []string{"a.counter"},
	}, {
		name: "self-reference keeps nothing alive",
		files: map[string]string{
			"a/a.go":  "package a\n\nfunc Used() {}\n\nfunc Loop(n int) int {\n\tif n == 0 {\n\t\treturn 0\n\t}\n\treturn Loop(n - 1)\n}\n",
			"main.go": "package main\n\nimport \"m/a\"\n\nfunc main() { a.Used() }\n",
		},
		want: []string{"a.Loop"},
	}, {
		name: "main, init, interface methods and the root facade pass",
		files: map[string]string{
			"root.go": "package m\n\nfunc Exported() {}\n\nfunc unexported() {}\n",
			"a/a.go": "package a\n\nimport \"fmt\"\n\n" +
				"// Shape is a module interface.\ntype Shape interface{ Area() float64 }\n\n" +
				"type Square struct{ Side float64 }\n\n" +
				"func (s Square) Area() float64 { return s.Side * s.Side }\n\n" +
				"func (s Square) String() string { return fmt.Sprint(s.Side) }\n\n" +
				"func (s Square) Perimeter() float64 { return 4 * s.Side }\n\n" +
				"func Print(s Shape) { fmt.Println(s) }\n",
			"cmd/x/main.go": "package main\n\nimport \"m/a\"\n\nfunc init() {}\n\nfunc main() { a.Print(a.Square{Side: 2}) }\n",
		},
		want: []string{"a.Square.Perimeter", "m.unexported"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := scanReferences(memContext(tc.files), "m", "m", nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range rep.Unreferenced {
				got = append(got, f.Key)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Fatalf("unreferenced %q, want %q", got, tc.want)
			}
		})
	}
}

// TestScanReferencesStaleAllowlist: an allowlist entry naming a
// referenced or missing declaration is reported, one naming an
// unreferenced declaration hides it.
func TestScanReferencesStaleAllowlist(t *testing.T) {
	files := map[string]string{
		"a/a.go":  "package a\n\nfunc Used() {}\n\nfunc Kept() {}\n",
		"main.go": "package main\n\nimport \"m/a\"\n\nfunc main() { a.Used() }\n",
	}
	allow := map[string]string{"a.Kept": "test", "a.Used": "test", "a.Gone": "test"}
	rep, err := scanReferences(memContext(files), "m", "m", allow)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unreferenced) != 0 || strings.Join(rep.StaleAllow, " ") != "a.Gone a.Used" {
		t.Fatalf("unreferenced %v, stale %v; want none and [a.Gone a.Used]", rep.Unreferenced, rep.StaleAllow)
	}
}

// memContext is a build context for the host whose file system is
// files, rooted at the directory "m".
func memContext(files map[string]string) *build.Context {
	fsys := fstest.MapFS{}
	for name, src := range files {
		fsys["m/"+name] = &fstest.MapFile{Data: []byte(src)}
	}
	ctxt := build.Default
	ctxt.GOPATH = ""
	ctxt.JoinPath = path.Join
	ctxt.IsAbsPath = path.IsAbs
	ctxt.HasSubdir = func(root, dir string) (string, bool) { return "", false }
	ctxt.IsDir = func(name string) bool {
		fi, err := fs.Stat(fsys, name)
		return err == nil && fi.IsDir()
	}
	ctxt.ReadDir = func(dir string) ([]fs.FileInfo, error) {
		ents, err := fs.ReadDir(fsys, dir)
		if err != nil {
			return nil, err
		}
		infos := make([]fs.FileInfo, len(ents))
		for i, e := range ents {
			if infos[i], err = e.Info(); err != nil {
				return nil, err
			}
		}
		return infos, nil
	}
	ctxt.OpenFile = func(name string) (io.ReadCloser, error) { return fsys.Open(name) }
	return &ctxt
}
