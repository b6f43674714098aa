package drqos_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// gate is one rule over the non-test source of a few packages: at most max
// calls in files matches may satisfy match. The calls are found in the
// syntax tree, so a comment or a string that merely spells one is not a call.
type gate struct {
	name  string
	files []string // globs relative to the module root
	match func(*ast.CallExpr) bool
	max   int
	fix   string
}

var gates = []gate{
	{
		// The audited event paths report corruption as a structured
		// manager.InvariantViolation the server can catch and degrade on;
		// a bare panic kills the daemon instead.
		name:  "panic",
		files: []string{"internal/manager/*.go", "internal/server/*.go", "internal/sim/*.go"},
		match: func(c *ast.CallExpr) bool {
			id, ok := c.Fun.(*ast.Ident)
			return ok && id.Name == "panic"
		},
		fix: "return a *manager.InvariantViolation instead",
	},
	{
		// Full state leaves the command loop through one query
		// (Server.ExportState); besides it only the snapshot writer and a
		// follower's verify check copy the manager. A fourth copy is an
		// O(population) cost creeping back onto some path.
		name:  "export",
		files: []string{"internal/server/*.go"},
		match: func(c *ast.CallExpr) bool {
			sel, ok := c.Fun.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "ExportState" && len(c.Args) == 0
		},
		max: 3,
		fix: "read through Server.ExportState or an aggregate",
	},
	{
		// Every wait up to the standby's confirmation parks on the event
		// that ends it: the shipper's parked poll on the journal's durable
		// broadcast, the acknowledgment wait (WaitReplicated) on a standby's
		// poll, both on the caller's context. A sleep or a ticker here is a
		// poll timer or a hold coming back (DESIGN.md §12); the one deadline
		// timer WaitReplicated arms is not pacing and is not matched.
		name:  "timer",
		files: []string{"internal/replica/shipper.go", "internal/replica/replica.go", "internal/server/pipeline.go"},
		match: func(c *ast.CallExpr) bool {
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			if sel.Sel.Name == "NewTicker" {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			return ok && pkg.Name == "time" && (sel.Sel.Name == "After" || sel.Sel.Name == "Sleep")
		},
		fix: "wait on journal.WaitDurable, pollSignal or the context instead",
	},
	{
		// The paper's four events step a manager through one transition,
		// manager.Apply, so the daemon, its replay, the simulator and the
		// chaos traces cannot disagree on what an event does. The gate sees
		// only syntax, so it tells a manager call from a Server or
		// Coordinator method by arity: those take a context first.
		name:  "transition",
		files: []string{"internal/server/*.go", "internal/sim/*.go", "internal/chaos/*.go"},
		match: func(c *ast.CallExpr) bool {
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			switch sel.Sel.Name {
			case "Establish":
				return len(c.Args) == 3
			case "Terminate", "FailLink", "RepairLink":
				return len(c.Args) == 1
			}
			return false
		},
		fix: "build the event's journal record and step the manager with manager.Apply",
	},
}

// check counts the gate's calls in files and fails when there are more than
// max, naming where each one is.
func (g gate) check(fset *token.FileSet, files []*ast.File) error {
	var at []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && g.match(c) {
				at = append(at, fset.Position(c.Pos()).String())
			}
			return true
		})
	}
	if len(at) > g.max {
		return fmt.Errorf("%s gate: %d calls, at most %d allowed; %s:\n\t%s",
			g.name, len(at), g.max, g.fix, strings.Join(at, "\n\t"))
	}
	return nil
}

func TestSourceGates(t *testing.T) {
	for _, g := range gates {
		fset := token.NewFileSet()
		var files []*ast.File
		for _, glob := range g.files {
			paths, err := filepath.Glob(glob)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) == 0 {
				t.Fatalf("%s gate: %s matches no file", g.name, glob)
			}
			for _, p := range paths {
				if strings.HasSuffix(p, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, p, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
		}
		if err := g.check(fset, files); err != nil {
			t.Error(err)
		}
	}
}

// TestSourceGatesCanFail feeds every gate one snippet that breaks it and one
// that only spells the forbidden call in a comment or a string.
func TestSourceGatesCanFail(t *testing.T) {
	cases := map[string]struct{ bad, good string }{
		"panic": {
			bad:  `func f() { panic("corrupt") }`,
			good: `func f() error { return errors.New("panic(x)") } // panic("corrupt")`,
		},
		"export": {
			bad: `func f(m *manager.Manager) { m.ExportState(); m.ExportState(); m.ExportState(); m.ExportState() }`,
			good: `func f(s *Server, m *manager.Manager) {
				m.ExportState(); m.ExportState(); m.ExportState()
				s.ExportState(ctx) // m.ExportState()
			}`,
		},
		"timer": {
			bad:  `func f() { time.Sleep(time.Millisecond) }`,
			good: `func f() time.Time { log.Print("time.After(d)"); return time.Now() } // time.NewTicker(d)`,
		},
		"transition": {
			bad: `func f(m *manager.Manager) { m.FailLink(l) }`,
			good: `func f(s *Server, m *manager.Manager) {
				s.Establish(ctx, src, dst, spec); s.Terminate(ctx, id); s.RepairLink(ctx, l)
				m.Apply(manager.EstablishEvent(src, dst, spec)) // m.Establish(src, dst, spec)
			}`,
		},
	}
	for _, g := range gates {
		c, ok := cases[g.name]
		if !ok {
			t.Fatalf("%s gate has no self-test case", g.name)
		}
		for _, src := range []string{c.bad, c.good} {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, g.name+".go", "package p\n"+src, 0)
			if err != nil {
				t.Fatal(err)
			}
			err = g.check(fset, []*ast.File{f})
			if src == c.bad && err == nil {
				t.Errorf("%s gate passed a violation:\n%s", g.name, src)
			}
			if src == c.good && err != nil {
				t.Errorf("%s gate failed a clean snippet: %v", g.name, err)
			}
		}
	}
}

// untested names the directories under root in fsys that hold no _test.go
// file: go test never runs them, so they can stop working unseen.
func untested(fsys fs.FS, root string) ([]string, error) {
	dirs, err := fs.ReadDir(fsys, root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		tests, err := fs.Glob(fsys, root+"/"+d.Name()+"/*_test.go")
		if err != nil {
			return nil, err
		}
		if len(tests) == 0 {
			out = append(out, d.Name())
		}
	}
	return out, nil
}

// TestExamplesAreRun: every example is run by go test, or it goes.
func TestExamplesAreRun(t *testing.T) {
	dirs, err := untested(os.DirFS("."), "examples")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) > 0 {
		t.Errorf("examples without a test: %v; add a main_test.go that calls main(), or delete the example", dirs)
	}
}

// TestCommandsAreRun: every command is run by go test, or it goes.
func TestCommandsAreRun(t *testing.T) {
	dirs, err := untested(os.DirFS("."), "cmd")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) > 0 {
		t.Errorf("commands without a test: %v; add a main_test.go that runs the command, or delete it", dirs)
	}
}

// TestCommandsAreRunCanFail feeds the check a tree with one run and one
// unrun command.
func TestCommandsAreRunCanFail(t *testing.T) {
	dirs, err := untested(fstest.MapFS{
		"cmd/run/main.go":      {},
		"cmd/run/main_test.go": {},
		"cmd/unrun/main.go":    {},
	}, "cmd")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"unrun"}; !slices.Equal(dirs, want) {
		t.Errorf("untested commands %v, want %v", dirs, want)
	}
}

// TestExamplesAreRunCanFail feeds the check a tree with one run and one
// unrun example.
func TestExamplesAreRunCanFail(t *testing.T) {
	dirs, err := untested(fstest.MapFS{
		"examples/run/main.go":      {},
		"examples/run/main_test.go": {},
		"examples/unrun/main.go":    {},
		"examples/README.md":        {},
	}, "examples")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"unrun"}; !slices.Equal(dirs, want) {
		t.Errorf("untested examples %v, want %v", dirs, want)
	}
}
