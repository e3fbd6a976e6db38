package deep15pf_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowlist holds the exported identifiers under internal/ that no
// non-test file references but that stay, each with its reason. Keys are
// "pkg.Name", or "pkg.Type.Method" for a method.
var surfaceAllowlist = map[string]string{
	"netserve.Server.SetDelay": "the slow-member hook of the netserve death and drain tests and bulk's death test",
	"tensor.KernelISAs":        "the ISA list the cross-ISA bitwise tests in tensor, nn, quant, climate and the three trainer commands loop over",
}

// stdlibMethods are method names the standard library calls through its own
// interfaces (fmt, errors, sort, container/heap, io), so a method with one of
// these names has callers no selector in this repo shows.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
}

// TestNoTestOnlyExportedSurface fails on an exported function, method, type,
// var or const under internal/ that only _test.go files reference. Callers
// are the non-test files under internal/, cmd/ and benchmark/. Top-level
// names are matched by package-qualified selector (or bare name inside their
// own package); methods are matched by name alone, which errs towards
// counting a method as used.
func TestNoTestOnlyExportedSurface(t *testing.T) {
	unused := testOnlySurface(t)
	var fresh []string
	for _, id := range unused {
		if _, ok := surfaceAllowlist[id]; !ok {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) > 0 {
		t.Errorf("exported identifiers reached only from tests (%d); delete them, "+
			"move them into the test that uses them, or allowlist them with a reason:\n  %s",
			len(fresh), strings.Join(fresh, "\n  "))
	}
	dead := make(map[string]bool, len(unused))
	for _, id := range unused {
		dead[id] = true
	}
	for id := range surfaceAllowlist {
		if !dead[id] {
			t.Errorf("allowlist entry %s is no longer a test-only exported identifier; remove it", id)
		}
	}
}

// surfacePkg is one directory's non-test files.
type surfacePkg struct {
	name  string // package clause
	files []*ast.File
}

func testOnlySurface(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*surfacePkg{} // by import path
	for _, root := range []string{"internal", "cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			path := "deep15pf/" + filepath.ToSlash(filepath.Dir(p))
			pkg := pkgs[path]
			if pkg == nil {
				pkg = &surfacePkg{name: f.Name.Name}
				pkgs[path] = pkg
			}
			pkg.files = append(pkg.files, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages found; run from the module root")
	}

	qualified := map[string]bool{} // "importpath.Name" used via a selector
	local := map[string]bool{}     // "importpath.Name" used bare inside its package
	selectors := map[string]bool{} // every selector name, for methods
	for path, pkg := range pkgs {
		for _, f := range pkg.files {
			imports := map[string]string{}
			for _, is := range f.Imports {
				ip, _ := strconv.Unquote(is.Path.Value)
				name := ip[strings.LastIndex(ip, "/")+1:]
				if p := pkgs[ip]; p != nil {
					name = p.name
				}
				if is.Name != nil {
					name = is.Name.Name
				}
				imports[name] = ip
			}
			for _, decl := range f.Decls {
				self := ""
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					self = fd.Name.Name
				}
				declNames := map[*ast.Ident]bool{}
				switch d := decl.(type) {
				case *ast.FuncDecl:
					declNames[d.Name] = true
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declNames[s.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declNames[n] = true
							}
						}
					}
				}
				var ref func(ast.Node) bool
				ref = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						selectors[n.Sel.Name] = true
						if x, ok := n.X.(*ast.Ident); ok {
							if ip, ok := imports[x.Name]; ok {
								qualified[ip+"."+n.Sel.Name] = true
								return false
							}
						}
						ast.Inspect(n.X, ref)
						return false
					case *ast.Ident:
						if !declNames[n] && n.Name != self {
							local[path+"."+n.Name] = true
						}
					}
					return true
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if n, ok := n.(*ast.FuncDecl); ok {
						// A method's receiver does not use its type; walk the rest.
						ast.Inspect(n.Type, ref)
						if n.Body != nil {
							ast.Inspect(n.Body, ref)
						}
						return false
					}
					return ref(n)
				})
			}
		}
	}

	var unused []string
	for path, pkg := range pkgs {
		if !strings.HasPrefix(path, "deep15pf/internal/") {
			continue
		}
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						if !qualified[path+"."+d.Name.Name] && !local[path+"."+d.Name.Name] {
							unused = append(unused, pkg.name+"."+d.Name.Name)
						}
					} else if !selectors[d.Name.Name] && !stdlibMethods[d.Name.Name] {
						unused = append(unused, pkg.name+"."+recvName(d.Recv)+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							if n.IsExported() && !qualified[path+"."+n.Name] && !local[path+"."+n.Name] {
								unused = append(unused, pkg.name+"."+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(unused)
	return unused
}

func recvName(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
