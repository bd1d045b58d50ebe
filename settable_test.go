package pqtls_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// flagDefs are the flag / *flag.FlagSet methods that define one flag each.
var flagDefs = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"Float64": true, "String": true, "Duration": true,
	"BoolVar": true, "IntVar": true, "Int64Var": true, "UintVar": true, "Uint64Var": true,
	"Float64Var": true, "StringVar": true, "DurationVar": true,
	"Var": true, "TextVar": true, "Func": true, "BoolFunc": true,
}

// parseTree parses every non-test Go file under root and hands each to visit.
func parseTree(t *testing.T, root string, visit func(*ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// countFlags counts flag definitions: calls of a flagDefs method on the
// flag package or on a FlagSet variable named fs, the tree's one convention.
func countFlags(f *ast.File) int {
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagDefs[sel.Sel.Name] {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); ok && (recv.Name == "fs" || recv.Name == "flag") {
			n++
		}
		return true
	})
	return n
}

// countOptionFields counts the exported fields of every exported struct type
// named *Options or *Config.
func countOptionFields(f *ast.File) int {
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		ts, ok := node.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		name := ts.Name.Name
		if !ok || !ts.Name.IsExported() ||
			!(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
			return true
		}
		for _, field := range st.Fields.List {
			for _, id := range field.Names {
				if id.IsExported() {
					n++
				}
			}
		}
		return true
	})
	return n
}

// TestSettableValuesRatchet is ROADMAP item 2's committed count of settable
// values — CLI flags under cmd/ and examples/ plus exported option fields
// under internal/ — that only goes down. A PR that removes some lowers
// testdata/settable_count in the same change; one that adds some must argue
// for the new number in review.
func TestSettableValuesRatchet(t *testing.T) {
	flags, fields := 0, 0
	for _, root := range []string{"cmd", "examples"} {
		parseTree(t, root, func(f *ast.File) { flags += countFlags(f) })
	}
	parseTree(t, "internal", func(f *ast.File) { fields += countOptionFields(f) })

	raw, err := os.ReadFile(filepath.Join("testdata", "settable_count"))
	if err != nil {
		t.Fatal(err)
	}
	limit, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("testdata/settable_count: %v", err)
	}
	got := flags + fields
	t.Logf("settable values: %d flags + %d option fields = %d (committed %d)", flags, fields, got, limit)
	if got > limit {
		t.Errorf("settable values grew: %d flags + %d option fields = %d, committed count is %d", flags, fields, got, limit)
	}
	if got < limit {
		t.Errorf("settable values shrank to %d: lower testdata/settable_count from %d so the ratchet holds the gain", got, limit)
	}
}
