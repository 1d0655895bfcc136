package syscallptr_test

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/syscallptr"
)

// TestSyscallptr runs Check over the packages under testdata/src and
// matches its diagnostics against // want expectations, written at the
// end of the offending line:
//
//	p := uintptr(unsafe.Pointer(&x)) // want `stored in a variable`
//
// Each backquoted string is a regular expression matched against one
// diagnostic message on that line. A line with no // want comment must
// produce no diagnostic, and every expectation must be met.
func TestSyscallptr(t *testing.T) {
	for _, name := range []string{"a", "clean"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			pkg, err := analysis.NewLoader().LoadDir(dir)
			if err != nil {
				t.Fatalf("load %s: %v", dir, err)
			}
			if pkg == nil {
				t.Fatalf("load %s: no Go files", dir)
			}
			wants := collectWants(t, pkg)
			for _, d := range syscallptr.Check(pkg) {
				key := lineKey(pkg, d.Pos)
				if !claim(wants[key], d.Message) {
					t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
				}
			}
			for key, exps := range wants {
				for _, e := range exps {
					if !e.matched {
						t.Errorf("%s: expected diagnostic matching %q, got none", key, e.re)
					}
				}
			}
		})
	}
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// claim marks the first unmatched expectation that msg satisfies.
func claim(exps []*expectation, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

// wantRe captures the expectation list trailing a statement; expRe
// picks each backquoted regexp out of it.
var (
	wantRe = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)$")
	expRe  = regexp.MustCompile("`([^`]*)`")
)

// collectWants reads every // want comment of pkg, keyed by file:line.
func collectWants(t *testing.T, pkg *analysis.Package) map[string][]*expectation {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				key := lineKey(pkg, c.Pos())
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "// want") {
						t.Errorf("%s: malformed // want comment: %s", key, c.Text)
					}
					continue
				}
				for _, em := range expRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(em[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, em[1], err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	return wants
}

func lineKey(pkg *analysis.Package, pos token.Pos) string {
	p := pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
