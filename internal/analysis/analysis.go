package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// An Analyzer is one invariant checker: a name (the identifier used in
// diagnostics and on the repolint command line), a doc string, and a Run
// function applied to one type-checked package at a time. The shape
// deliberately mirrors golang.org/x/tools/go/analysis so the suite could
// migrate to the upstream framework wholesale if the dependency ever
// becomes available; until then the driver protocol (cmd/repolint) and
// the fixture harness (analysistest) are reimplemented on the standard
// library.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one analyzer's view of one package: the parsed files, the
// type-checked package object, and the use/def/type maps. Report is
// supplied by the driver.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is one finding, anchored to a position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string // filled in by the driver
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full invariant suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		NoGoroutine,
		ErrTaxonomy,
		UnsafeConfine,
		LockDiscipline,
		CtxPropagate,
	}
}

// PkgBase returns the last element of a package path, normalizing the
// test-variant suffix the go command appends ("repro/table
// [repro/table.test]" -> "table"). The analyzers' allowlists are keyed
// on this base so they apply identically to the real module paths and
// the short fixture paths of the analysistest harness.
func PkgBase(pkgPath string) string {
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	return path.Base(pkgPath)
}

// isTestFile reports whether the file's name marks it as a test file.
// The invariants govern production code; tests legitimately spawn bare
// goroutines, compare errors structurally, and build throwaway configs.
func (p *Pass) isTestFile(f *ast.File) bool {
	name := p.Fset.Position(f.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

// sourceFiles yields the non-test files of the pass.
func (p *Pass) sourceFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if !p.isTestFile(f) {
			out = append(out, f)
		}
	}
	return out
}

// typeOf returns the static type of e, or nil.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// errorIface is the universe error interface, for Implements checks.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t implements error.
func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// isErrorInterface reports whether t is the error interface itself
// (possibly behind a name).
func isErrorInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}

// namedFrom unwraps pointers and returns the named type behind t, or nil.
func namedFrom(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if alias, ok := t.(*types.Alias); ok {
		t = types.Unalias(alias)
	}
	named, _ := t.(*types.Named)
	return named
}

// typeIs reports whether t (possibly behind a pointer) is the named type
// pkgBase.name, with the package matched by path base (see PkgBase).
func typeIs(t types.Type, pkgBase, name string) bool {
	named := namedFrom(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && PkgBase(obj.Pkg().Path()) == pkgBase
}

// isExecPkg reports whether pkgPath names the repo's exec package. The
// match is by path base so the fixture stubs qualify too, with the one
// standard-library collision (os/exec) excluded explicitly.
func isExecPkg(pkgPath string) bool {
	return PkgBase(pkgPath) == "exec" && pkgPath != "os/exec"
}

// pkgOfIdentIsExec reports whether sel's qualifier resolves to an
// imported package whose path base is "exec" — i.e. the expression is a
// direct reference into the exec package (exec.NewPool, exec.Map,
// exec.Config{...}).
func (p *Pass) isExecPkgSelector(sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	return ok && isExecPkg(pn.Imported().Path())
}

// isExecCall reports whether call invokes something in the exec package:
// a package-level function (exec.NewPool) or a method on an exec type
// (pool.ForEach with pool an *exec.Pool).
func (p *Pass) isExecCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if p.isExecPkgSelector(sel) {
		return true
	}
	if named := namedFrom(p.typeOf(sel.X)); named != nil {
		if obj := named.Obj(); obj != nil && obj.Pkg() != nil {
			return isExecPkg(obj.Pkg().Path())
		}
	}
	return false
}
