package lightor_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreferencedList holds the declarations under internal/ that no non-test
// file uses but that stay on purpose, one "path Name — reason" per line.
const unreferencedList = "testdata/unreferenced.txt"

// TestNoUnreferencedDeclarations fails on any top-level declaration under
// internal/ (exported or not) whose name is never used outside its own
// declaration by the module's non-test files, bench/, cmd/ and examples/
// included, unless testdata/unreferenced.txt lists it with a reason. A
// listed entry that is used again, or no longer declared, fails too, so the
// list only shrinks.
//
// Uses are matched by name, not by type: a method reached only through an
// interface counts as used, and the separate bench module needs no second
// type-check. A name shared by two declarations can therefore only hide dead
// code, never flag live code.
func TestNoUnreferencedDeclarations(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string][]token.Pos{} // identifier name -> every occurrence
	type decl struct {
		key        string // "internal/pkg Name" or "internal/pkg Type.Method"
		name       string
		start, end token.Pos
	}
	var decls []decl

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		add := func(name string, node ast.Node, recv string) {
			if name == "_" || name == "init" {
				return
			}
			key := name
			if recv != "" {
				key = recv + "." + name
			}
			decls = append(decls, decl{dir + " " + key, name, node.Pos(), node.End()})
		}
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				recv := ""
				if gd.Recv != nil && len(gd.Recv.List) == 1 {
					recv = receiverName(gd.Recv.List[0].Type)
				}
				add(gd.Name.Name, gd, recv)
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, spec, "")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id.Name, spec, "")
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	listed, err := readUnreferencedList()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		used := false
		for _, p := range uses[d.name] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		_, ok := listed[d.key]
		switch {
		case !used && !ok:
			t.Errorf("%s is declared but nothing outside tests uses it: delete it, or list it in %s with a reason", d.key, unreferencedList)
		case used && ok:
			t.Errorf("%s is listed in %s but is used now: remove the entry", d.key, unreferencedList)
		}
	}
	var gone []string
	for key := range listed {
		if !declared[key] {
			gone = append(gone, key)
		}
	}
	sort.Strings(gone)
	for _, key := range gone {
		t.Errorf("%s is listed in %s but no longer declared: remove the entry", key, unreferencedList)
	}
}

// receiverName returns the type name of a method receiver, dropping any
// pointer and type parameters.
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// readUnreferencedList parses unreferencedList into key -> reason. Blank
// lines and lines starting with # are skipped; every entry needs a reason.
func readUnreferencedList() (map[string]string, error) {
	f, err := os.Open(unreferencedList)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, ok := strings.Cut(text, " — ")
		key, reason = strings.TrimSpace(key), strings.TrimSpace(reason)
		if _, dup := out[key]; !ok || reason == "" || len(strings.Fields(key)) != 2 || dup {
			return nil, fmt.Errorf("%s:%d: want one \"path Name — reason\" per entry, got %q", unreferencedList, line, text)
		}
		out[key] = reason
	}
	return out, sc.Err()
}
