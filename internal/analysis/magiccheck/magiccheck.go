// Package magiccheck verifies the stream-magic conventions of the codec
// kernels: every 4-byte magic constant (a package-level uint32 const whose
// name contains "magic") must be unique across the whole build — two codecs
// sharing a magic would silently mis-route decodes — must carry the element
// width it tags in its trailing ASCII digit ('1' for the float32 variant of
// a *32 constant, '2' for the float64 variant of a *64 constant, matching
// SZG1/SZG2, ZFP1/ZFP2, SZX1/SZX2, …). Whether a magic is matched on
// decode is not checked here: every kernel hands its pair to one
// grid.Stream, which both writes and matches it.
package magiccheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"fraz/internal/analysis"
)

// Analyzer flags duplicate or wrongly width-tagged stream magics.
var Analyzer = &analysis.Analyzer{
	Name: "magiccheck",
	Doc:  "check that 4-byte stream-magic constants are unique across packages and carry the right width digit",
	Run:  run,
}

// seenKey namespaces the cross-package duplicate table in the session.
const seenKey = "magiccheck.seen"

// prior records where a magic value was first declared.
type prior struct {
	pkg  string
	name string
}

type magicConst struct {
	name string
	val  uint32
	pos  token.Pos
}

func run(pass *analysis.Pass) error {
	magics := collect(pass)
	if len(magics) == 0 {
		return nil
	}

	seen := pass.Session.State(seenKey, func() any { return map[uint32]prior{} }).(map[uint32]prior)
	for _, m := range magics {
		if p, dup := seen[m.val]; dup {
			pass.Reportf(m.pos, "magic %s (%q) collides with %s.%s: streams would mis-route between codecs",
				m.name, asciiBytes(m.val), p.pkg, p.name)
			continue
		}
		seen[m.val] = prior{pkg: pass.Pkg.Name(), name: m.name}
	}

	for _, m := range magics {
		checkWidthTag(pass, m)
	}
	return nil
}

// collect gathers the package-level magic constants: untyped or uint32
// integer consts whose name contains "magic".
func collect(pass *analysis.Pass) []magicConst {
	var out []magicConst
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.Contains(strings.ToLower(name.Name), "magic") {
						continue
					}
					cnst, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					v, ok := constant.Uint64Val(constant.ToInt(cnst.Val()))
					if !ok || v > 0xFFFFFFFF {
						continue
					}
					out = append(out, magicConst{name: name.Name, val: uint32(v), pos: name.Pos()})
				}
			}
		}
	}
	return out
}

// checkWidthTag enforces the width-digit convention: among the four ASCII
// bytes of the magic exactly one must be a digit, and that digit must be '1'
// for a *32-named constant and '2' for a *64-named one. Constants whose name
// carries no width suffix are exempt.
func checkWidthTag(pass *analysis.Pass, m magicConst) {
	var want byte
	switch {
	case strings.HasSuffix(m.name, "32"):
		want = '1'
	case strings.HasSuffix(m.name, "64"):
		want = '2'
	default:
		return
	}
	b := asciiBytes(m.val)
	var digits []byte
	for i := 0; i < len(b); i++ {
		if b[i] >= '0' && b[i] <= '9' {
			digits = append(digits, b[i])
		}
	}
	if len(digits) != 1 {
		pass.Reportf(m.pos, "magic %s (%q) must carry exactly one width-tag digit, found %d",
			m.name, b, len(digits))
		return
	}
	if digits[0] != want {
		pass.Reportf(m.pos, "magic %s (%q) tags the wrong width: name says %s so the digit must be %q, got %q",
			m.name, b, m.name[len(m.name)-2:], want, digits[0])
	}
}

// asciiBytes renders the magic's four bytes most-significant first, the
// order the repository's comments quote them in.
func asciiBytes(v uint32) string {
	return string([]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
