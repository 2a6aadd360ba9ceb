package lhmm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The eight flag sets the binaries expose, as argv before -h.
var flagCommands = []string{
	"lhmm-serve", "lhmm-bench",
	"lhmm datagen", "lhmm train", "lhmm match", "lhmm eval", "lhmm replay",
	"lhmm sessions inspect",
}

// Ceilings on the flag surface, a few flags above today's counts. A flag
// is added only with the two callers that need different values named in
// DESIGN §8d.
const (
	maxServeFlags = 14
	maxTotalFlags = 82
)

// maxConfigFields is the ceiling on the exported fields of the four
// config structs behind the flags. A field is added the way a flag is:
// with the two callers that set it to different values named in
// DESIGN §8d.
const maxConfigFields = 34

var (
	helpFlag = regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	// A command name and the rest of its command line, up to whatever
	// ends one in a shell or in prose.
	cmdLine = regexp.MustCompile("\\b(lhmm-serve|lhmm-bench|lhmm (?:datagen|train|match|eval|replay|sessions inspect))\\b([^`|;&()#\n]*)")
	// A -flag at the start of a word.
	flagWord = regexp.MustCompile("(?:^|[\\s(\\[`\"'])-([a-z][a-z0-9-]*)")
	// A README code span that opens with a flag: `-k`, `-trace-out FILE`.
	flagSpan = regexp.MustCompile("(?:^|[\\s(|])`-([a-z][a-z0-9-]*)")
)

// TestFlagSurfaceLint is the flag-side twin of
// TestReadmeMetricFamiliesLint. It builds the three binaries, reads
// each command's -h, and fails when (a) lhmm-serve or the eight commands
// together exceed their ceilings, or (b) README.md or the text of a
// cmd/*/*.go file (comments, usage and help strings) names a flag the
// command it is written after does not define — or, where no command
// precedes it, that no command defines.
func TestFlagSurfaceLint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	// Per command and over all of them, the flags -h lists, plus the
	// -h every flag set answers to without listing it.
	defined := map[string]map[string]bool{}
	union := map[string]bool{"h": true}
	total := 0
	for _, c := range flagCommands {
		argv := append(strings.Fields(c), "-h")
		out, _ := exec.Command(filepath.Join(bin, argv[0]), argv[1:]...).CombinedOutput() // -h exits 0 or 2 by flag.ErrorHandling
		listed := helpFlag.FindAllStringSubmatch(string(out), -1)
		if len(listed) == 0 {
			t.Fatalf("%s -h lists no flags:\n%s", c, out)
		}
		defined[c] = map[string]bool{"h": true}
		for _, m := range listed {
			defined[c][m[1]], union[m[1]] = true, true
		}
		total += len(listed)
		if c == "lhmm-serve" && len(listed) > maxServeFlags {
			t.Errorf("lhmm-serve -h lists %d flags, ceiling %d", len(listed), maxServeFlags)
		}
	}
	if total > maxTotalFlags {
		t.Errorf("the eight commands list %d flags between them, ceiling %d", total, maxTotalFlags)
	}

	// check holds one logical line of documentation to the flag sets.
	check := func(where, line string, loose *regexp.Regexp) {
		for _, m := range cmdLine.FindAllStringSubmatch(line, -1) {
			for _, f := range flagWord.FindAllStringSubmatch(m[2], -1) {
				if !defined[m[1]][f[1]] {
					t.Errorf("%s: `%s` is shown with -%s, which its -h does not list", where, m[1], f[1])
				}
			}
		}
		for _, f := range loose.FindAllStringSubmatch(cmdLine.ReplaceAllString(line, ""), -1) {
			if !union[f[1]] {
				t.Errorf("%s: names -%s, which no command's -h lists", where, f[1])
			}
		}
	}
	joinContinued := strings.NewReplacer("\\\n", " ")

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(joinContinued.Replace(string(readme)), "\n") {
		check("README.md", line, flagSpan)
	}

	sources, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		var texts []string
		for _, cg := range f.Comments {
			texts = append(texts, cg.Text())
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					texts = append(texts, s)
				}
			}
			return true
		})
		for _, text := range texts {
			for _, line := range strings.Split(joinContinued.Replace(text), "\n") {
				check(path, line, flagWord)
			}
		}
	}
}

// TestConfigSurfaceLint is the config-side twin of TestFlagSurfaceLint:
// it counts the exported fields of core.Config, hmm.Config,
// serve.Config and serve.CheckpointConfig and fails above
// maxConfigFields.
func TestConfigSurfaceLint(t *testing.T) {
	total := 0
	for _, cs := range []struct{ file, name string }{
		{"internal/core/config.go", "Config"},
		{"internal/hmm/hmm.go", "Config"},
		{"internal/serve/serve.go", "Config"},
		{"internal/serve/checkpoint.go", "CheckpointConfig"},
	} {
		f, err := parser.ParseFile(token.NewFileSet(), cs.file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var st *ast.StructType
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == cs.name {
				st, _ = ts.Type.(*ast.StructType)
			}
			return st == nil
		})
		if st == nil {
			t.Fatalf("%s: no struct type %s", cs.file, cs.name)
		}
		n := 0
		for _, fld := range st.Fields.List {
			for _, name := range fld.Names {
				if name.IsExported() {
					n++
				}
			}
			if len(fld.Names) == 0 { // an embedded field
				n++
			}
		}
		t.Logf("%s %s: %d exported fields", cs.file, cs.name, n)
		total += n
	}
	if total > maxConfigFields {
		t.Errorf("the config structs hold %d exported fields, ceiling %d", total, maxConfigFields)
	}
}
