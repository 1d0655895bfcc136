// Command erpcvet runs the datapath's unsafe.Pointer check,
// internal/analysis/syscallptr, over the packages its arguments name
// (./... when there are none):
//
//	go run ./cmd/erpcvet ./...
//
// It resolves the patterns with `go list`, loads each package from
// source (build-tag aware, test files excluded) and prints every
// finding. The exit status is 1 when there is one, 2 when a package
// cannot be listed or loaded.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/syscallptr"
)

func main() {
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

// standalone loads each package named by the patterns from source and
// runs the check, printing findings to stderr.
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
		for _, d := range syscallptr.Check(pkg) {
			fmt.Fprintf(os.Stderr, "%s: [syscallptr] %s\n", loader.Fset.Position(d.Pos), d.Message)
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
