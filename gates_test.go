package drqos_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
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
		// that ends it: the stream's push on the journal's durable
		// broadcast, the acknowledgment wait (WaitReplicated) on a standby's
		// acknowledgment, both on the caller's context. A sleep or a ticker
		// here is a poll timer or a hold coming back (DESIGN.md §12); the
		// heartbeat deadline of an idle push and the one deadline timer
		// WaitReplicated arms are not pacing and are not matched.
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
		fix: "wait on journal.WaitDurable, ackSignal or the context instead",
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
	{
		// A node comes up one way, first start or restart: server.Open
		// opens its directory, rebuilds, installs what the journal held
		// and starts the loop, and replica.Open builds a replicated node
		// on it. The daemon, the episodes and the shard coordinator boot
		// through those, so what a node recovers cannot depend on which of
		// them brought it up.
		name:  "boot",
		files: []string{"cmd/drserverd/*.go", "internal/chaos/*.go", "internal/shard/*.go"},
		match: func(c *ast.CallExpr) bool {
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			pkg, ok := sel.X.(*ast.Ident)
			return ok && (pkg.Name == "server" && sel.Sel.Name == "NewFromManager" || pkg.Name == "journal" && sel.Sel.Name == "Open")
		},
		fix: "boot through server.Open, or replica.Open for a replicated node",
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
		"boot": {
			bad: `func f() { jnl, rec, err := journal.Open(dir, opt) }`,
			good: `func f() {
				srv, rec, err := server.Open(g, cfg, dir, jopt, opt) // server.NewFromManager(g, m, opt)
				log.Print("journal.Open(dir, opt)")
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

// ungenerated names what keeps doc from stating each table of full, the
// output of cmd/experiments, once and verbatim: a pipe table of doc that
// full does not hold line for line up to the blank line that ends each of
// its tables, and a count of tables that differs from full's count of
// experiments ("=== " headers).
func ungenerated(doc, full string) []string {
	var tables, problems []string
	var table strings.Builder
	// The trailing "" ends a table on the doc's last line.
	for _, line := range append(strings.SplitAfter(doc, "\n"), "") {
		if strings.HasPrefix(line, "|") {
			table.WriteString(line)
			continue
		}
		if table.Len() > 0 {
			tables = append(tables, table.String())
			table.Reset()
		}
	}
	for _, tab := range tables {
		if strings.Count("\n"+full, "\n"+tab+"\n") != 1 {
			problems = append(problems, "not in the output once:\n"+tab)
		}
	}
	if n := strings.Count("\n"+full, "\n=== "); len(tables) != n {
		problems = append(problems, fmt.Sprintf("%d tables for %d experiments", len(tables), n))
	}
	return problems
}

// TestExperimentsTablesAreGenerated: every table in EXPERIMENTS.md is a
// verbatim copy of one in experiments_full.txt, the output of `go run
// ./cmd/experiments -run all -scale full -seed 2001`, and each experiment
// there has its table here.
func TestExperimentsTablesAreGenerated(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile("experiments_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ungenerated(string(doc), string(full)) {
		t.Errorf("EXPERIMENTS.md: %s", p)
	}
}

// TestExperimentsTablesAreGeneratedCanFail feeds the check a doc with an
// edited cell, one with a table's last row left out and one with a table
// left out.
func TestExperimentsTablesAreGeneratedCanFail(t *testing.T) {
	full := "=== a (full scale, 1s) ===\nA\n\n| x | y |\n|---|---|\n| 1 | 2 |\n\n" +
		"=== b (full scale, 1s) ===\nB\n\n| z |\n|---|\n| 3 |\n| 4 |\n\n"
	for doc, want := range map[string]int{
		"# A\n\n| x | y |\n|---|---|\n| 1 | 2 |\n\n# B\n| z |\n|---|\n| 3 |\n| 4 |\n": 0,
		"# A\n\n| x | y |\n|---|---|\n| 1 | 5 |\n\n# B\n| z |\n|---|\n| 3 |\n| 4 |\n": 1,
		"# A\n\n| x | y |\n|---|---|\n| 1 | 2 |\n\n# B\n| z |\n|---|\n| 3 |\n":        1,
		"# A\n\n| x | y |\n|---|---|\n| 1 | 2 |\n":                                    1,
	} {
		if got := ungenerated(doc, full); len(got) != want {
			t.Errorf("doc %q: problems %q, want %d", doc, got, want)
		}
	}
}

// docBudget caps a document's line count. The docs are to shrink toward
// one statement per mechanism (ROADMAP item 9), so a budget only goes down:
// a change that shortens a doc lowers its budget to the new count.
type docBudget struct {
	file  string
	lines int
}

var docBudgets = []docBudget{
	{"README.md", 702},
	{"DESIGN.md", 1451},
}

// overBudget names each document of fsys with more lines than its budget.
func overBudget(fsys fs.FS, budgets []docBudget) ([]string, error) {
	var over []string
	for _, b := range budgets {
		doc, err := fs.ReadFile(fsys, b.file)
		if err != nil {
			return nil, err
		}
		if n := bytes.Count(doc, []byte("\n")); n > b.lines {
			over = append(over, fmt.Sprintf("%s: %d lines, budget %d", b.file, n, b.lines))
		}
	}
	return over, nil
}

// TestDocBudgets: README.md and DESIGN.md do not grow back.
func TestDocBudgets(t *testing.T) {
	over, err := overBudget(os.DirFS("."), docBudgets)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range over {
		t.Errorf("%s; state the change where its mechanism is already described, and cut as much elsewhere", o)
	}
}

// TestDocBudgetsCanFail feeds the check a doc at its budget, one a line
// over it, and a budget for a doc that is not there.
func TestDocBudgetsCanFail(t *testing.T) {
	fsys := fstest.MapFS{
		"AT.md":   {Data: []byte("a\nb\n")},
		"OVER.md": {Data: []byte("a\nb\nc\n")},
	}
	over, err := overBudget(fsys, []docBudget{{"AT.md", 2}, {"OVER.md", 2}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"OVER.md: 3 lines, budget 2"}; !slices.Equal(over, want) {
		t.Errorf("over budget %q, want %q", over, want)
	}
	if _, err := overBudget(fsys, []docBudget{{"GONE.md", 2}}); err == nil {
		t.Error("a budget for a missing doc passed")
	}
}

// checkedModules is one type-checking pass over the non-test Go files of
// the modules rooted at dirs, the first of which owns internal/.
type checkedModules struct {
	root string
	fset *token.FileSet
	pkgs []checkedPackage // every non-standard package, dependencies first
}

// checkedPackage is one type-checked package of a checkedModules.
type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	owned bool // declared under the first module's internal/
}

// rootModules is this module and bench/, type-checked once for every gate
// that reads them.
var rootModules = sync.OnceValues(func() (*checkedModules, error) { return checkModules(".", "bench") })

// checkModules type-checks the non-test Go files of the modules rooted at
// dirs.
func checkModules(dirs ...string) (*checkedModules, error) {
	root, err := filepath.Abs(dirs[0])
	if err != nil {
		return nil, err
	}
	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	m := &checkedModules{root: root, fset: token.NewFileSet()}
	std := importer.Default()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	for _, dir := range dirs {
		pkgs, err := listDeps(dir)
		if err != nil {
			return nil, err
		}
		for _, lp := range pkgs {
			if lp.Standard || checked[lp.ImportPath] != nil || len(lp.GoFiles) == 0 {
				continue
			}
			var files []*ast.File
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, 0)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(lp.ImportPath, m.fset, files, info)
			if err != nil {
				return nil, fmt.Errorf("type-checking %s: %w", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = pkg
			owned := strings.HasPrefix(lp.Dir+string(filepath.Separator), internal)
			m.pkgs = append(m.pkgs, checkedPackage{pkg: pkg, files: files, info: info, owned: owned})
		}
	}
	return m, nil
}

// at names where obj is declared, as "file:line: name" with the file
// relative to the first module's root.
func (m *checkedModules) at(obj types.Object, name string) string {
	pos := m.fset.Position(obj.Pos())
	file, err := filepath.Rel(m.root, pos.Filename)
	if err != nil {
		file = pos.Filename
	}
	return fmt.Sprintf("%s:%d: %s", filepath.ToSlash(file), pos.Line, name)
}

// testOnlyExports names, as "file:line: pkg.Name", every exported func,
// method, type, var or const declared under the first module's internal/
// that no non-test code in any of the modules uses; total counts the
// exports it looked at. A method also counts as used when its type, or the
// pointer to it, implements an interface with that method which the checked
// code uses (as the type of an expression, or a parameter or result of a
// called function), and when it satisfies fmt.Stringer, error or
// interface{ Unwrap() error }, which fmt and errors look for at run time.
// Names ending in ForTesting or starting with SetTestHook are seams for tests
// by name and are never flagged.
func testOnlyExports(m *checkedModules) (flagged []string, total int) {
	var (
		used       = map[types.Object]bool{}     // objects non-test code names
		interfaces = map[*types.Interface]bool{} // interface types non-test code uses
	)
	useIface := func(t types.Type) {
		if s, ok := t.(*types.Slice); ok { // a variadic parameter
			t = s.Elem()
		}
		if i, ok := t.Underlying().(*types.Interface); ok && i.NumMethods() > 0 {
			interfaces[i] = true
		}
	}
	for _, p := range m.pkgs {
		info := p.info
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range info.Selections {
			used[origin(sel.Obj())] = true
		}
		for e, tv := range info.Types {
			if tv.IsType() {
				continue
			}
			useIface(tv.Type)
			call, ok := e.(*ast.CallExpr)
			if !ok {
				continue
			}
			if sig, ok := info.Types[call.Fun].Type.(*types.Signature); ok && !info.Types[call.Fun].IsType() {
				for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tuple.Len(); i++ {
						useIface(tuple.At(i).Type())
					}
				}
			}
		}
	}

	// The interfaces fmt and errors look for by assertion at run time.
	errType := types.Universe.Lookup("error").Type()
	runtimeIfaces := map[*types.Interface]bool{
		ifaceOf("String", types.Typ[types.String]): true,
		errType.Underlying().(*types.Interface):    true,
		ifaceOf("Unwrap", errType):                 true,
	}
	implemented := func(fn *types.Func, ifaces map[*types.Interface]bool) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for i := range ifaces {
			if !hasMethod(i, fn.Name()) {
				continue
			}
			if types.Implements(recv, i) || types.Implements(types.NewPointer(recv), i) {
				return true
			}
		}
		return false
	}
	flag := func(obj types.Object, name string) {
		total++
		n := obj.Name()
		if used[obj] || strings.HasSuffix(n, "ForTesting") || strings.HasPrefix(n, "SetTestHook") {
			return
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil &&
			(implemented(fn, runtimeIfaces) || implemented(fn, interfaces)) {
			return
		}
		flagged = append(flagged, m.at(obj, name))
	}
	for _, p := range m.pkgs {
		if !p.owned {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				flag(obj, p.pkg.Name()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					flag(fn, p.pkg.Name()+"."+name+"."+fn.Name())
				}
			}
		}
	}
	sort.Strings(flagged)
	return flagged, total
}

// unsetOptions names, as "file:line: pkg.Type.Field", every exported field
// of an exported struct type named …Options or …Config declared under the
// first module's internal/ that no non-test code outside the field's own
// package writes; total counts the fields it looked at. A write is a
// composite-literal key (T{F: v}) or an assignment target (x.F = v, x.F++).
// A field only its own package or a test sets has one value in use: a
// constant, or a value the package works out from its other inputs.
func unsetOptions(m *checkedModules) (flagged []string, total int) {
	written := map[types.Object]bool{}
	for _, p := range m.pkgs {
		write := func(obj types.Object) {
			if obj != nil && obj.Pkg() != p.pkg {
				written[origin(obj)] = true
			}
		}
		target := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil {
					write(s.Obj())
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						write(p.info.Uses[key])
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				}
				return true
			})
		}
	}
	for _, p := range m.pkgs {
		if !p.owned {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				field := st.Field(i)
				if !field.Exported() {
					continue
				}
				total++
				if !written[field] {
					flagged = append(flagged, m.at(field, p.pkg.Name()+"."+name+"."+field.Name()))
				}
			}
		}
	}
	sort.Strings(flagged)
	return flagged, total
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a method or field of an instantiated generic type back to the
// declared one.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// ifaceOf is interface{ name() result }.
func ifaceOf(name string, result types.Type) *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
}

func hasMethod(i *types.Interface, name string) bool {
	for k := 0; k < i.NumMethods(); k++ {
		if i.Method(k).Name() == name {
			return true
		}
	}
	return false
}

// listedPackage is the part of `go list -json` the export check reads.
type listedPackage struct {
	Dir, ImportPath string
	Standard        bool
	GoFiles         []string
}

// listDeps lists the packages of the module rooted at dir and everything they
// import, dependencies first.
func listDeps(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// TestNoTestOnlyExports: every export under internal/ has a caller outside
// the tests, in this module or in bench/, or it goes. A helper only tests
// use moves into a _test.go file of its package (export_test.go when the
// external test package needs it).
func TestNoTestOnlyExports(t *testing.T) {
	m, err := rootModules()
	if err != nil {
		t.Fatal(err)
	}
	flagged, total := testOnlyExports(m)
	t.Logf("%d exports under internal/", total)
	if len(flagged) > 0 {
		t.Errorf("%d exports under internal/ have no non-test caller; delete each, or move it into a _test.go of its package:\n\t%s",
			len(flagged), strings.Join(flagged, "\n\t"))
	}
}

// flaggedNames strips the "file:line: " from each flagged entry.
func flaggedNames(flagged []string) []string {
	var names []string
	for _, f := range flagged {
		names = append(names, f[strings.LastIndex(f, " ")+1:])
	}
	return names
}

// TestNoTestOnlyExportsCanFail runs the check over a fixture module whose
// internal/ package has an export with no caller, one only its test calls,
// a method reached only through an interface conversion, a String method,
// a ForTesting seam and an Options type its command uses: only the first
// two are flagged.
func TestNoTestOnlyExportsCanFail(t *testing.T) {
	m, err := checkModules(filepath.Join("testdata", "exports"))
	if err != nil {
		t.Fatal(err)
	}
	flagged, total := testOnlyExports(m)
	if names, want := flaggedNames(flagged), []string{"p.TestedOnly", "p.Unused"}; !slices.Equal(names, want) || total != 7 {
		t.Errorf("flagged %v of %d exports, want %v of 7", flagged, total, want)
	}
}

// TestNoUnsetOptions: every exported field of an …Options or …Config struct
// under internal/ is set by some non-test code outside its package, in this
// module or in bench/. A field nobody sets, or only its own package or a
// test sets, is a setting with one value in use: make it a constant, or
// work the value out from the inputs the package already has.
func TestNoUnsetOptions(t *testing.T) {
	m, err := rootModules()
	if err != nil {
		t.Fatal(err)
	}
	flagged, total := unsetOptions(m)
	t.Logf("%d Options/Config fields under internal/", total)
	if len(flagged) > 0 {
		t.Errorf("%d Options/Config fields under internal/ are set by no non-test code outside their package; make each a constant or derive it:\n\t%s",
			len(flagged), strings.Join(flagged, "\n\t"))
	}
}

// TestNoUnsetOptionsCanFail runs the check over the fixture module, whose
// Options has a field its command sets, one only its test sets and one
// nobody sets: only the last two are flagged.
func TestNoUnsetOptionsCanFail(t *testing.T) {
	m, err := checkModules(filepath.Join("testdata", "exports"))
	if err != nil {
		t.Fatal(err)
	}
	flagged, total := unsetOptions(m)
	if names, want := flaggedNames(flagged), []string{"p.Options.TestSet", "p.Options.Unset"}; !slices.Equal(names, want) || total != 3 {
		t.Errorf("flagged %v of %d fields, want %v of 3", flagged, total, want)
	}
}
