package tensorbase_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The serving tiers sit above the rest of internal/: engine is the database,
// repl and shard distribute it, and server exposes any of them over HTTP.
var servingTiers = map[string]bool{"engine": true, "server": true, "repl": true, "shard": true}

// forbiddenTiers lists, per serving tier, the tiers it must not import.
// Tiers absent here may import any tier below them.
var forbiddenTiers = map[string][]string{
	"engine": {"server", "repl", "shard"},
	"repl":   {"server", "shard"},
	"shard":  {"server", "repl"},
}

// internalImports maps each package directory under internal/ (relative to
// it, e.g. "engine" or "blocked") to the internal packages its non-test
// files import, by the same relative name.
func internalImports(t *testing.T) map[string]map[string]bool {
	t.Helper()
	const prefix = "tensorbase/internal/"
	fset := token.NewFileSet()
	out := make(map[string]map[string]bool)
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(strings.TrimPrefix(path, "internal"+string(filepath.Separator))))
		if out[pkg] == nil {
			out[pkg] = make(map[string]bool)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if strings.HasPrefix(p, prefix) {
				out[pkg][strings.TrimPrefix(p, prefix)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no packages found under internal/")
	}
	return out
}

// TestServingTiersAreLeaves: no package below the serving tiers imports
// one of them, so storage, execution and inference never depend on how
// the database is distributed or served.
func TestServingTiersAreLeaves(t *testing.T) {
	for pkg, imports := range internalImports(t) {
		if servingTiers[pkg] {
			continue
		}
		for imp := range imports {
			if servingTiers[imp] {
				t.Errorf("internal/%s imports internal/%s; only engine, server, repl and shard may", pkg, imp)
			}
		}
	}
}

// TestServingTierLayering: engine imports no other serving tier, and repl
// and shard import neither server nor each other.
func TestServingTierLayering(t *testing.T) {
	all := internalImports(t)
	for pkg, forbidden := range forbiddenTiers {
		if all[pkg] == nil {
			t.Errorf("internal/%s not found", pkg)
			continue
		}
		for _, f := range forbidden {
			if all[pkg][f] {
				t.Errorf("internal/%s imports internal/%s", pkg, f)
			}
		}
	}
}

// TestFrameCodecIsALeaf: internal/frame, the codec under the WAL, the
// replication stream and the shard RPC, depends on nothing internal but
// the fault model its Conn sender applies.
func TestFrameCodecIsALeaf(t *testing.T) {
	imports := internalImports(t)["frame"]
	if imports == nil {
		t.Fatal("internal/frame not found")
	}
	for imp := range imports {
		if imp != "fault" {
			t.Errorf("internal/frame imports internal/%s; only internal/fault is allowed", imp)
		}
	}
}

// TestServingTiersSkipTheConnector: internal/connector is the DL-centric
// baseline's simulated cross-system wire. The serving tiers carry their
// own bytes over internal/frame.
func TestServingTiersSkipTheConnector(t *testing.T) {
	all := internalImports(t)
	for tier := range servingTiers {
		if all[tier]["connector"] {
			t.Errorf("internal/%s imports internal/connector", tier)
		}
	}
}
