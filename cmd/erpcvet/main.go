// Command erpcvet checks the repository against the zero-copy
// ownership invariants the datapath depends on, running the three
// analyzers in internal/analysis: framerelease, owner and syscallptr.
//
// Standalone:
//
//	go run ./cmd/erpcvet ./...
//
// loads packages from source (build-tag aware, test files excluded)
// and prints findings; exit status 1 when any are found.
//
// As a vet tool:
//
//	go vet -vettool=$(which erpcvet) ./...
//
// speaks the cmd/go unit-checker protocol (-V=full, -flags, *.cfg),
// type-checking from the compiler's export data. Findings in _test.go
// files are suppressed — tests intentionally exercise the fast paths
// off-owner and hand-manage frames.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/framerelease"
	"repro/internal/analysis/owner"
	"repro/internal/analysis/syscallptr"
)

var analyzers = []*analysis.Analyzer{
	framerelease.Analyzer,
	owner.Analyzer,
	syscallptr.Analyzer,
}

func main() {
	// Unit-checker protocol probes come before flag parsing: the go
	// command invokes `erpcvet -V=full` and `erpcvet -flags` directly.
	args := os.Args[1:]
	if len(args) == 1 && (args[0] == "-V=full" || args[0] == "--V=full") {
		printVersion()
		return
	}
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitCheck(args[0]))
	}

	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: erpcvet [package pattern ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(standalone(patterns))
}

// printVersion emits the tool identity line the go command uses as a
// cache key for vet results: name, version, and a content hash of the
// executable so rebuilt tools invalidate stale results.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("erpcvet version devel buildID=%x\n", h.Sum(nil)[:16])
}

// standalone loads each package named by the patterns from source and
// runs the analyzers, printing findings to stderr.
func standalone(patterns []string) int {
	dirs, err := listDirs(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "erpcvet: %v\n", err)
		return 2
	}
	loader := analysis.NewLoader()
	found := 0
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "erpcvet: %v\n", err)
			return 2
		}
		if pkg == nil {
			continue
		}
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "erpcvet: %v\n", err)
			return 2
		}
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "erpcvet: %d finding(s)\n", found)
		return 1
	}
	return 0
}

// listDirs resolves package patterns to directories via the go
// command, matching the build's view of the module.
func listDirs(patterns []string) ([]string, error) {
	cmdArgs := append([]string{"list", "-f", "{{.Dir}}"}, patterns...)
	out, err := exec.Command("go", cmdArgs...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go list: %s", ee.Stderr)
		}
		return nil, err
	}
	var dirs []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line != "" {
			dirs = append(dirs, line)
		}
	}
	return dirs, nil
}

// vetConfig is the JSON the go command writes for each unit of work,
// mirroring the unexported struct in cmd/go.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitCheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "erpcvet: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "erpcvet: parse %s: %v\n", cfgPath, err)
		return 2
	}

	// The go command expects the vetx facts file regardless of outcome;
	// this tool carries no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "erpcvet: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "erpcvet: %v\n", err)
			return 2
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return 0
	}

	// Type-check against the compiler's export data, resolving import
	// paths through the vet config's maps.
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tconf := types.Config{Importer: importer.ForCompiler(fset, compiler, lookup)}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "erpcvet: typecheck %s: %v\n", cfg.ImportPath, err)
		return 2
	}

	diags, err := analysis.Run(&analysis.Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "erpcvet: %v\n", err)
		return 2
	}
	found := 0
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue // tests exercise the fast paths off-convention on purpose
		}
		fmt.Fprintf(os.Stderr, "%s: %s\n", pos, d.Message)
		found++
	}
	if found > 0 {
		return 2
	}
	return 0
}
