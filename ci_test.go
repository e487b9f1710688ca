package odyssey

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The standard library has no YAML parser, so the workflow is checked line
// by line for what has broken it before or can make a step silently test
// nothing: see TestWorkflowRuns.

const workflowPath = ".github/workflows/ci.yml"

// workflowStep is one step's name and its run script, with the workflow line
// the step starts on.
type workflowStep struct {
	name string
	line int
	run  string
}

// scalarKey matches a step's one-line name: or run: value.
var scalarKey = regexp.MustCompile(`^(\s*)(?:-\s+)?(name|run):\s*(.*)$`)

// parseWorkflow splits the workflow into its steps and lists every one-line
// plain-scalar name:/run: value YAML would not read as the string it looks
// like: ": " starts a mapping inside it, " #" a comment.
func parseWorkflow(src string) (steps []workflowStep, problems []string) {
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		item := strings.HasPrefix(strings.TrimSpace(lines[i]), "- ")
		if item {
			steps = append(steps, workflowStep{line: i + 1})
		}
		m := scalarKey.FindStringSubmatch(lines[i])
		if m == nil || len(steps) == 0 {
			continue
		}
		indent, key, val := len(m[1]), m[2], strings.TrimSpace(m[3])
		block := strings.HasPrefix(val, "|") || strings.HasPrefix(val, ">")
		quoted := strings.HasPrefix(val, `"`) || strings.HasPrefix(val, "'")
		if !block && !quoted && (strings.Contains(val, ": ") || strings.Contains(val, " #")) {
			problems = append(problems, fmt.Sprintf("%s:%d: the plain scalar %s: %q holds \": \" or \" #\", which YAML does not read as text; quote it",
				workflowPath, i+1, key, val))
		}
		st := &steps[len(steps)-1]
		if key == "name" {
			st.name = strings.Trim(val, `"'`)
			continue
		}
		if !block {
			st.run = val
			continue
		}
		var body []string
		for i+1 < len(lines) {
			next := lines[i+1]
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
				break
			}
			body = append(body, strings.TrimSpace(next))
			i++
		}
		st.run = strings.Join(body, "\n")
	}
	return steps, problems
}

// shellWords splits a run script into commands of words: quotes are removed,
// a trailing backslash continues the line, and newlines, ";", "&&", "||" and
// "|" outside quotes end a command. It is enough for the go commands a step
// runs; nothing is expanded.
func shellWords(script string) [][]string {
	script = strings.ReplaceAll(script, "\\\n", " ")
	var cmds [][]string
	var cmd []string
	var word strings.Builder
	inWord := false
	endWord := func() {
		if inWord {
			cmd = append(cmd, word.String())
			word.Reset()
			inWord = false
		}
	}
	endCmd := func() {
		endWord()
		if len(cmd) > 0 {
			cmds = append(cmds, cmd)
			cmd = nil
		}
	}
	for i := 0; i < len(script); i++ {
		switch c := script[i]; {
		case c == '\'' || c == '"':
			j := strings.IndexByte(script[i+1:], c)
			if j < 0 {
				j = len(script) - i - 1
			}
			word.WriteString(script[i+1 : i+1+j])
			inWord = true
			i += j + 1
		case c == '\n' || c == ';' || c == '|' || c == '&':
			endCmd()
		case c == ' ' || c == '\t':
			endWord()
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	endCmd()
	return cmds
}

// goTest is one `go test` command of a step: its -run, -bench and -fuzz
// patterns and the package directories it names, relative to the repository
// root ("" is the root package; a "/..." suffix takes the directories below).
type goTest struct {
	step   string
	run    []string
	bench  []string
	fuzz   []string
	pkgDir []string
}

// goTests lists the go test commands of every step of file, following a cd
// that precedes them in the same script; a command that names no package
// tests the one it runs in.
func goTests(file string, steps []workflowStep) []goTest {
	var out []goTest
	for _, st := range steps {
		cwd := ""
		for _, w := range shellWords(st.run) {
			if w[0] == "cd" && len(w) == 2 {
				cwd = path.Clean(path.Join(cwd, w[1]))
				continue
			}
			if len(w) < 2 || w[0] != "go" || w[1] != "test" {
				continue
			}
			gt := goTest{step: fmt.Sprintf("%s:%d %q", file, st.line, st.name)}
			for i := 2; i < len(w); i++ {
				flag, val, hasVal := strings.Cut(w[i], "=")
				var dst *[]string
				switch flag {
				case "-run":
					dst = &gt.run
				case "-bench":
					dst = &gt.bench
				case "-fuzz":
					dst = &gt.fuzz
				}
				switch {
				case dst != nil && hasVal:
					*dst = append(*dst, val)
				case dst != nil && i+1 < len(w):
					*dst = append(*dst, w[i+1])
					i++
				case w[i] == "." || strings.HasPrefix(w[i], "./"):
					gt.pkgDir = append(gt.pkgDir, path.Join(cwd, strings.TrimSuffix(w[i], "/")))
				}
			}
			if len(gt.pkgDir) == 0 {
				gt.pkgDir = []string{cwd}
			}
			out = append(out, gt)
		}
	}
	return out
}

// testFunc is one Test, Fuzz, Example or Benchmark function of the tree.
type testFunc struct {
	dir, name string
}

// testFuncs lists every top-level test, fuzz, example and benchmark function
// under the repository root, and the directories that hold a go.mod.
func testFuncs(t *testing.T) (funcs []testFunc, modules []string) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "." {
			dir = ""
		}
		if d.Name() == "go.mod" {
			modules = append(modules, dir)
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, testFunc{dir: dir, name: fn.Name.Name})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs, modules
}

// moduleOf returns the module that holds dir: the deepest of modules that is
// dir or one of its parents.
func moduleOf(dir string, modules []string) string {
	best := ""
	for _, mod := range modules {
		if (mod == "" || dir == mod || strings.HasPrefix(dir, mod+"/")) && len(mod) > len(best) {
			best = mod
		}
	}
	return best
}

// inPackages reports whether dir is one of the packages a command names:
// pkg itself, or for "pkg/..." pkg and the directories under it within its
// module.
func inPackages(dir string, pkgs, modules []string) bool {
	for _, pkg := range pkgs {
		if pkg == "." {
			pkg = ""
		}
		root, all := strings.CutSuffix(pkg, "...")
		root = strings.TrimSuffix(root, "/")
		switch {
		case !all:
			if dir == pkg {
				return true
			}
		case (root == "" || dir == root || strings.HasPrefix(dir, root+"/")) &&
			moduleOf(dir, modules) == moduleOf(root, modules):
			return true
		}
	}
	return false
}

// alternatives splits a -run, -bench or -fuzz pattern into the top-level
// alternatives that name a test, dropping anchors; "^$" (run nothing) and
// subtest patterns name none.
func alternatives(pattern string) []string {
	var out []string
	for _, alt := range strings.Split(pattern, "|") {
		alt = strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$")
		if alt != "" && !strings.Contains(alt, "/") {
			out = append(out, alt)
		}
	}
	return out
}

// patternProblems lists every -run, -bench or -fuzz alternative of a go test
// command that names no function of its kind in the packages the command
// tests.
func patternProblems(c goTest, funcs []testFunc, modules []string) []string {
	var problems []string
	for _, sel := range []struct {
		flag     string
		patterns []string
		kinds    []string // the name prefixes of the functions the flag selects
	}{
		{"-run", c.run, []string{"Test", "Fuzz", "Example"}},
		{"-bench", c.bench, []string{"Benchmark"}},
		{"-fuzz", c.fuzz, []string{"Fuzz"}},
	} {
		for _, pattern := range sel.patterns {
			for _, alt := range alternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					problems = append(problems, fmt.Sprintf("%s: %s %q: %v", c.step, sel.flag, pattern, err))
					continue
				}
				if !slices.ContainsFunc(funcs, func(f testFunc) bool {
					return slices.ContainsFunc(sel.kinds, func(k string) bool { return strings.HasPrefix(f.name, k) }) &&
						re.MatchString(f.name) && inPackages(f.dir, c.pkgDir, modules)
				}) {
					problems = append(problems, fmt.Sprintf("%s: %s %q: %q matches nothing in %v",
						c.step, sel.flag, pattern, alt, c.pkgDir))
				}
			}
		}
	}
	return problems
}

// workflowProblems lists every way the workflow's steps fail to run what
// they name, given the tree's test functions.
func workflowProblems(src string, funcs []testFunc, modules []string) []string {
	steps, problems := parseWorkflow(src)
	cmds := goTests(workflowPath, steps)
	for _, c := range cmds {
		problems = append(problems, patternProblems(c, funcs, modules)...)
	}
	for _, f := range funcs {
		if !strings.HasPrefix(f.name, "Fuzz") {
			continue
		}
		if !slices.ContainsFunc(cmds, func(c goTest) bool {
			return inPackages(f.dir, c.pkgDir, modules) && slices.ContainsFunc(c.fuzz, func(p string) bool {
				ok, err := regexp.MatchString(p, f.name)
				return err == nil && ok
			})
		}) {
			problems = append(problems, fmt.Sprintf("%s.%s: no -fuzz step runs it", f.dir, f.name))
		}
	}
	return problems
}

// TestWorkflowRuns keeps the CI workflow runnable. It fails on any of:
//   - a one-line plain-scalar name: or run: value holding ": " or " #": YAML
//     reads a mapping or a comment there, and the whole file stops parsing;
//   - a Fuzz target that no -fuzz command runs in its package;
//   - a -run, -bench or -fuzz alternative that names no test, fuzz target,
//     example or benchmark in the packages its command tests: a renamed test
//     would make its step pass by running nothing.
func TestWorkflowRuns(t *testing.T) {
	src, err := os.ReadFile(workflowPath)
	if err != nil {
		t.Fatal(err)
	}
	funcs, modules := testFuncs(t)
	if len(funcs) == 0 {
		t.Fatal("found no test functions")
	}
	for _, p := range workflowProblems(string(src), funcs, modules) {
		t.Error(p)
	}
}

// TestWorkflowCheckCatches holds the check to what it is for, on workflows
// written for it: each must produce exactly its one problem.
func TestWorkflowCheckCatches(t *testing.T) {
	funcs := []testFunc{{"", "TestRoot"}, {"a", "TestA"}, {"a", "FuzzA"}, {"a", "BenchmarkA"}, {"benchmark", "TestB"}}
	modules := []string{"", "benchmark"}
	const ok = `
      - name: Fuzz
        run: go test -run '^$' -fuzz '^FuzzA$' -fuzztime 10s ./a/
`
	cases := map[string]string{
		"unquoted colon in a name": `
      - name: Benchmark module vet (own go.mod: root go vet cannot see it)
        run: cd benchmark && go vet ./...
`,
		"comment in a one-line run": `
      - name: Vet
        run: go vet ./... #all
`,
		"a fuzz target nobody runs": `
      - name: Fuzz seeds
        run: go test -run Fuzz ./a
`,
		"a -run name that matches nothing": `
      - name: Tests
        run: go test -run 'TestA|TestGone' -count=2 ./...
`,
		"a -bench name outside the packages named": `
      - name: Benchmarks
        run: |
          go test -run '^$' -bench 'BenchmarkA' \
            -benchtime 1x .
`,
		"./... does not enter a nested module": `
      - name: Tests
        run: go test -run TestB ./...
`,
	}
	if p := workflowProblems(ok, funcs, modules); len(p) != 0 {
		t.Fatalf("a clean workflow: %q", p)
	}
	for what, src := range cases {
		if what != "a fuzz target nobody runs" {
			src += ok
		}
		if p := workflowProblems(src, funcs, modules); len(p) != 1 {
			t.Errorf("%s: %d problems %q, want 1", what, len(p), p)
		}
	}
	if p := workflowProblems(`
      - name: Benchmark module tests
        run: cd benchmark && go test -run TestB ./...
`+ok, funcs, modules); len(p) != 0 {
		t.Errorf("a cd into the nested module: %q", p)
	}
}
