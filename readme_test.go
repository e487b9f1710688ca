package odyssey

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// declaredNames lists what a package's non-test source declares: each
// top-level name as "Name", and each field and method of a named type as
// "Type.Member" (interface methods included), with "Type." marking a type
// that has any.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						names[id.Name+"."], name = true, id.Name+"."+name
					}
				}
				names[name] = true
				return false
			case *ast.TypeSpec:
				names[d.Name.Name] = true
				var fields *ast.FieldList
				switch typ := d.Type.(type) {
				case *ast.StructType:
					fields = typ.Fields
				case *ast.InterfaceType:
					fields = typ.Methods
				}
				for i := 0; fields != nil && i < len(fields.List); i++ {
					for _, id := range fields.List[i].Names {
						names[d.Name.Name+"."], names[d.Name.Name+"."+id.Name] = true, true
					}
				}
				return false
			case *ast.ValueSpec:
				for _, id := range d.Names {
					names[id.Name] = true
				}
				return false
			}
			return true
		})
	}
	return names
}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// goRef is a name README points a reader at: a field or method of
	// Options or Explorer, or a name in simdisk or core, optionally followed
	// by a field or method of it.
	goRef = regexp.MustCompile(`(?:^|[^\w.])(Options|Explorer|simdisk|core)\.(\w+)(?:\.(\w+))?`)
	// fileRef is a file README names, bare or as a path; * globs.
	fileRef = regexp.MustCompile(`[\w./*-]+\.(?:go|json|yml|sh)\b`)
)

// splitReadme splits README into its prose, one line a line, and the go test
// commands its fenced blocks show.
func splitReadme(readme string) (prose []string, cmds []workflowStep) {
	fenced := false
	for i, line := range strings.Split(readme, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case !fenced:
			prose = append(prose, line)
		case strings.HasPrefix(line, "go test "):
			cmd, _, _ := strings.Cut(line, " #") // a comment may hold a quote
			cmd = strings.TrimSpace(cmd)
			cmds = append(cmds, workflowStep{name: cmd, line: i + 1, run: cmd})
		}
	}
	return prose, cmds
}

// TestReadmeNamesWhatExists: every Go name and file README points a reader at
// in an inline code span is there (a file: in git ls-files; a bare name
// matches any path), and every test a go test command of a fenced block
// selects by name exists. Fenced blocks are commands to copy, and
// the files they write need not exist. A lower-case name after simdisk. or
// core. is a benchmark metric (core.cache_hit_frac), not a Go name.
func TestReadmeNamesWhatExists(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	prose, cmds := splitReadme(string(data))
	pkgs := map[string]map[string]bool{
		"simdisk": declaredNames(t, "internal/simdisk"),
		"core":    declaredNames(t, "internal/core"),
	}
	root := declaredNames(t, ".")
	out, gitErr := exec.Command("git", "ls-files").Output()
	if gitErr != nil { // an exported source tree
		t.Logf("git ls-files: %v; file names go unchecked", gitErr)
	}
	files := strings.Fields(string(out))
	exists := func(ref string) bool {
		if gitErr != nil {
			return true
		}
		ref = strings.TrimPrefix(ref, "./")
		for _, f := range files {
			if !strings.Contains(ref, "/") {
				f = path.Base(f)
			}
			if ok, _ := path.Match(ref, f); ok {
				return true
			}
		}
		return false
	}
	for _, span := range codeSpan.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		code := strings.ReplaceAll(span[1], "\n", " ") // a span may break over lines
		for _, m := range goRef.FindAllStringSubmatch(code, -1) {
			qual, name, member := m[1], m[2], m[3]
			ref := strings.TrimSuffix(qual+"."+name+"."+member, ".")
			var ok bool
			switch names := pkgs[qual]; {
			case names == nil: // Options, Explorer
				ok = root[qual+"."+name]
			case !unicode.IsUpper(rune(name[0])):
				continue
			default: // a member is checked where the name is a type that has some
				ok = names[name] && (member == "" || !names[name+"."] || names[name+"."+member])
			}
			if !ok {
				t.Errorf("README names `%s`, which the source does not declare", ref)
			}
		}
		for _, ref := range fileRef.FindAllString(code, -1) {
			if !exists(ref) {
				t.Errorf("README names the file `%s`, which the repository does not hold", ref)
			}
		}
	}
	// Every -run, -bench or -fuzz pattern names a test that exists, and the
	// check catches one that does not.
	funcs, modules := testFuncs(t)
	for _, c := range goTests("README.md", cmds) {
		for _, p := range patternProblems(c, funcs, modules) {
			t.Error(p)
		}
	}
	_, gone := splitReadme("```sh\ngo test -run 'TestReadmeNamesWhatExists|TestGone' .  # it's gone\n```")
	if p := patternProblems(goTests("README.md", gone)[0], funcs, modules); len(p) != 1 {
		t.Errorf("a command naming a test that does not exist: %d problems %q, want 1", len(p), p)
	}
}
