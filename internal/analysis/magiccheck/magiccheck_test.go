package magiccheck_test

import (
	"testing"

	"fraz/internal/analysis/analysistest"
	"fraz/internal/analysis/magiccheck"
)

func TestMagiccheck(t *testing.T) {
	analysistest.Run(t, "testdata/src/a", magiccheck.Analyzer)
}

// TestMagiccheckFRZMagics pins the analyzer's treatment of the frsz codec's
// real stream magics: FRZ1/FRZ2 satisfy the width-tag digit rule, and
// re-declaring either value is a collision.
func TestMagiccheckFRZMagics(t *testing.T) {
	analysistest.Run(t, "testdata/src/frz", magiccheck.Analyzer)
}
