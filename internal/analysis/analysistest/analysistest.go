// Package analysistest runs an analyzer over a testdata package and checks
// its diagnostics against `// want` comment expectations, in the manner of
// golang.org/x/tools/go/analysis/analysistest. A testdata file marks each
// line expected to be flagged with a comment holding one double-quoted Go
// regular expression per expected diagnostic:
//
//	kept := pool.Get[byte](n) // want `has no deferred release`
//
// Lines without a want comment must not be flagged; both directions are
// asserted, so every analyzer test carries flagging and non-flagging cases
// in the same package.
package analysistest

import (
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fraz/internal/analysis"
)

var wantRE = regexp.MustCompile("//\\s*want\\s+(.*)$")

// expectation is one `// want` pattern awaiting a matching diagnostic.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the package rooted at dir (typically "testdata/src/a"), applies
// the analyzer, and reports any mismatch between the diagnostics produced
// and the `// want` expectations in the source as test errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, "frazlint.test/"+strings.ReplaceAll(dir, "\\", "/"))
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{a}, analysis.NewSession())
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	expects := collectWants(t, pkg)

	for _, d := range diags {
		if !claim(expects, d) {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
		}
	}
}

// claim marks the first unmatched expectation covering the diagnostic and
// reports whether one existed.
func claim(expects []*expectation, d analysis.Diagnostic) bool {
	for _, e := range expects {
		if e.matched || e.file != d.Pos.Filename || e.line != d.Pos.Line {
			continue
		}
		if e.pattern.MatchString(d.Message) {
			e.matched = true
			return true
		}
	}
	return false
}

// collectWants parses every `// want` comment in the package into
// expectations keyed by file and line.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range splitPatterns(t, pos, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out
}

// splitPatterns extracts the quoted regular expressions from the text after
// `want`. Both interpreted (`"..."`) and raw (backquoted) strings are
// accepted.
func splitPatterns(t *testing.T, pos token.Position, text string) []string {
	t.Helper()
	var pats []string
	text = strings.TrimSpace(text)
	for text != "" {
		switch text[0] {
		case '"':
			end := -1
			for i := 1; i < len(text); i++ {
				if text[i] == '"' && text[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern in %q", pos.Filename, pos.Line, text)
			}
			s, err := strconv.Unquote(text[:end+1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, text[:end+1], err)
			}
			pats = append(pats, s)
			text = strings.TrimSpace(text[end+1:])
		case '`':
			end := strings.IndexByte(text[1:], '`')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern in %q", pos.Filename, pos.Line, text)
			}
			pats = append(pats, text[1:end+1])
			text = strings.TrimSpace(text[end+2:])
		default:
			t.Fatalf("%s:%d: want patterns must be quoted strings, got %q", pos.Filename, pos.Line, text)
		}
	}
	return pats
}
