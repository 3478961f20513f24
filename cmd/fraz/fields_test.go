package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fraz"
)

// TestFieldsRoundTrip drives the multi-field mode end to end: two synthetic
// fields into one .frazd archive, the listing, one field extracted and
// verified against its source — and the shared publisher's promise on this
// path too: a failed run leaves what was at -out alone, and no temporary
// file beside it.
func TestFieldsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	archive := filepath.Join(dir, "snap.frazd")
	common := []string{"-dataset", "Hurricane", "-scale", "tiny", "-seed", "1", "-workers", "1"}
	var out strings.Builder
	if err := run(append([]string{"-fields", "CLOUDf,Pf", "-psnr", "55", "-out", archive}, common...), &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"target:           PSNR 55.00 dB", "field CLOUDf:", "field Pf:", "codecs selected:", "aggregate ratio:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compress report missing %q:\n%s", want, out.String())
		}
	}
	if st, err := os.Stat(archive); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("published archive: %v, mode %v, want 0644", err, st.Mode())
	}

	out.Reset()
	if err := run([]string{"-decompress", archive}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CLOUDf@0:") || !strings.Contains(out.String(), "Pf@0:") {
		t.Errorf("listing:\n%s", out.String())
	}

	out.Reset()
	raw := filepath.Join(dir, "pf.f32")
	if err := run(append([]string{"-decompress", archive, "-field", "Pf", "-out", raw, "-verify"}, common[:4]...), &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"field:            Pf@0 of " + archive + " (codec=", "objective:        psnr target 55", "wrote 8192 bytes to " + raw, "verify:           OK"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("field report missing %q:\n%s", want, out.String())
		}
	}

	before, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	err = run(append([]string{"-fields", "CLOUDf,Pf", "-ratio", "1000000", "-tolerance", "0.001", "-out", archive}, common...), &out)
	if !errors.Is(err, fraz.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if after, err := os.ReadFile(archive); err != nil || !bytes.Equal(before, after) {
		t.Errorf("failed run changed the archive at -out (%v)", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(left) > 0 {
		t.Errorf("failed run left %v behind", left)
	}
}
