package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fraz"
	"fraz/internal/container"
	"fraz/internal/dataset"
)

func TestRunWithSyntheticDataset(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-dataset", "NYX", "-field", "temperature", "-scale", "tiny",
		"-ratio", "8", "-regions", "4", "-seed", "2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"NYX/temperature", "recommended bound", "achieved ratio", "feasible"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunWritesCompressedOutput(t *testing.T) {
	dir := t.TempDir()
	outFile := filepath.Join(dir, "field.fraz")
	var out strings.Builder
	err := run([]string{
		"-dataset", "EXAALT", "-field", "x", "-scale", "tiny",
		"-ratio", "30", "-tolerance", "0.25", "-regions", "8", "-seed", "3", "-out", outFile,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(outFile)
	if err != nil {
		t.Fatalf("compressed output not written: %v", err)
	}
	if info.Size() == 0 {
		t.Errorf("compressed output is empty")
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Errorf("output should mention the written file:\n%s", out.String())
	}
	// The output is a self-describing container, not a bare blob.
	enc, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := container.Decode(enc)
	if err != nil {
		t.Fatalf("written file is not a valid .fraz container: %v", err)
	}
	if cn.Header.Codec != "sz:abs" {
		t.Errorf("container codec = %q, want the tuned default sz:abs", cn.Header.Codec)
	}
}

// TestCompressDecompressRoundTrip drives the full artifact pipeline: tune
// and compress a synthetic field into a .fraz container, decompress it with
// no -dims/-compressor flags (everything comes from the header), and assert
// the reconstruction respects the tuned error bound pointwise.
func TestCompressDecompressRoundTrip(t *testing.T) {
	dir := t.TempDir()
	frazFile := filepath.Join(dir, "tcf.fraz")
	rawFile := filepath.Join(dir, "tcf.f32")

	var out strings.Builder
	err := run([]string{
		"-dataset", "Hurricane", "-field", "TCf", "-scale", "tiny",
		"-ratio", "10", "-regions", "4", "-seed", "2", "-out", frazFile,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	var decOut strings.Builder
	if err := run([]string{"-decompress", frazFile, "-out", rawFile}, &decOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sz:abs", "error guarantee", "wrote"} {
		if !strings.Contains(decOut.String(), want) {
			t.Errorf("decompress output missing %q:\n%s", want, decOut.String())
		}
	}

	// Reconstruct the original field and read back the container header to
	// learn the shape and the tuned bound the CLI settled on.
	enc, err := os.ReadFile(frazFile)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := container.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !(cn.Header.Bound > 0) {
		t.Fatalf("container bound = %v", cn.Header.Bound)
	}
	d, err := dataset.New("Hurricane", dataset.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	orig, shape, err := d.Generate("TCf", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !shape.Equal(cn.Header.Shape) {
		t.Fatalf("container shape %v, dataset shape %v", cn.Header.Shape, shape)
	}
	rec, err := dataset.ReadRaw[float32](rawFile, shape)
	if err != nil {
		t.Fatal(err)
	}
	maxErr := 0.0
	for i := range orig {
		if diff := math.Abs(float64(rec[i]) - float64(orig[i])); diff > maxErr {
			maxErr = diff
		}
	}
	if maxErr > cn.Header.Bound {
		t.Errorf("pointwise error %g exceeds tuned bound %g", maxErr, cn.Header.Bound)
	}
}

// TestBlockedCompressDecompressRoundTrip drives the blocked pipeline end to
// end: -blocks produces a v2 container, -decompress auto-detects it (no
// extra flags), and the reconstruction respects the tuned bound pointwise.
func TestBlockedCompressDecompressRoundTrip(t *testing.T) {
	dir := t.TempDir()
	frazFile := filepath.Join(dir, "tcf-blocked.fraz")
	rawFile := filepath.Join(dir, "tcf-blocked.f32")

	var out strings.Builder
	err := run([]string{
		"-dataset", "Hurricane", "-field", "TCf", "-scale", "tiny",
		"-ratio", "10", "-regions", "4", "-seed", "2", "-blocks", "4", "-out", frazFile,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "blocks:           4") {
		t.Errorf("compress output should report the block count:\n%s", out.String())
	}

	enc, err := os.ReadFile(frazFile)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := container.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if cn.Header.Version != container.VersionBlocked || len(cn.Blocks) != 4 {
		t.Fatalf("written container is v%d with %d blocks, want v2 with 4", cn.Header.Version, len(cn.Blocks))
	}

	var decOut strings.Builder
	if err := run([]string{"-decompress", frazFile, "-out", rawFile}, &decOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sz:abs", "blocks:           4", "wrote"} {
		if !strings.Contains(decOut.String(), want) {
			t.Errorf("decompress output missing %q:\n%s", want, decOut.String())
		}
	}

	d, err := dataset.New("Hurricane", dataset.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	orig, shape, err := d.Generate("TCf", 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := dataset.ReadRaw[float32](rawFile, shape)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if diff := math.Abs(float64(rec[i]) - float64(orig[i])); diff > cn.Header.Bound {
			t.Fatalf("value %d error %g exceeds tuned bound %g", i, diff, cn.Header.Bound)
		}
	}
}

// TestInfeasibleTargetExitsNonZero is the regression test for the sentinel
// error path: an unreachable target ratio must surface as an error matching
// fraz.ErrInfeasible (so main exits non-zero), report the closest observed
// configuration, and leave no output file behind.
func TestInfeasibleTargetExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	outFile := filepath.Join(dir, "never.fraz")
	var out strings.Builder
	err := run([]string{
		"-dataset", "NYX", "-field", "temperature", "-scale", "tiny",
		"-ratio", "1000000", "-tolerance", "0.01", "-regions", "2", "-seed", "1", "-out", outFile,
	}, &out)
	if !errors.Is(err, fraz.ErrInfeasible) {
		t.Fatalf("err = %v, want errors.Is(err, fraz.ErrInfeasible)", err)
	}
	text := out.String()
	for _, want := range []string{"feasible:         false", "closest observed", "note:"} {
		if !strings.Contains(text, want) {
			t.Errorf("infeasible output missing %q:\n%s", want, text)
		}
	}
	if _, err := os.Stat(outFile); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("infeasible run should not leave an output file (stat err = %v)", err)
	}

	// A failed run must also leave a pre-existing archive at -out intact:
	// the container streams into a temporary file and only renames over the
	// destination on success.
	if err := os.WriteFile(outFile, []byte("precious archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-dataset", "NYX", "-field", "temperature", "-scale", "tiny",
		"-ratio", "1000000", "-tolerance", "0.01", "-regions", "2", "-seed", "1", "-out", outFile,
	}, &out)
	if !errors.Is(err, fraz.ErrInfeasible) {
		t.Fatalf("err = %v, want errors.Is(err, fraz.ErrInfeasible)", err)
	}
	if got, err := os.ReadFile(outFile); err != nil || string(got) != "precious archive" {
		t.Errorf("failed run clobbered the existing file at -out: %q, %v", got, err)
	}
}

func TestDecompressErrors(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.fraz")
	if err := os.WriteFile(junk, []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-decompress", filepath.Join(dir, "missing.fraz")},
		{"-decompress", junk},
		{"-decompress", junk, "-dataset", "NYX"}, // mutually exclusive modes
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestRunWithRawInputFile(t *testing.T) {
	dir := t.TempDir()
	d, err := dataset.New("CESM", dataset.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	data, shape, err := d.Generate("CLOUD", 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cloud.f32")
	if err := dataset.WriteRaw(path, data); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = run([]string{
		"-in", path, "-dims", shape.String(),
		"-compressor", "zfp:accuracy", "-ratio", "6", "-regions", "4",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "zfp:accuracy") {
		t.Errorf("output should mention the compressor:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                  // neither -in nor -dataset
		{"-dataset", "Hurricane"},           // missing -field
		{"-dataset", "Nope", "-field", "x"}, // unknown dataset
		{"-in", "/does/not/exist", "-dims", "4"},
		{"-in", "x.f32"}, // missing dims
		{"-dataset", "NYX", "-field", "temperature", "-scale", "huge"}, // bad scale
		{"-dataset", "NYX", "-field", "temperature", "-ratio", "0.5"},  // bad ratio
		{"-dataset", "NYX", "-field", "temperature", "-compressor", "nope"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestParseScale(t *testing.T) {
	for name, want := range map[string]dataset.Scale{
		"tiny": dataset.ScaleTiny, "small": dataset.ScaleSmall, "medium": dataset.ScaleMedium, "": dataset.ScaleSmall,
	} {
		got, err := parseScale(name)
		if err != nil || got != want {
			t.Errorf("parseScale(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseScale("gigantic"); err == nil {
		t.Errorf("unknown scale should fail")
	}
}

func TestPSNRTargetCompressVerifyRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("quality tuning compresses and decompresses repeatedly")
	}
	dir := t.TempDir()
	outFile := filepath.Join(dir, "psnr.fraz")
	var out strings.Builder
	err := run([]string{
		"-dataset", "Hurricane", "-field", "TCf", "-scale", "tiny",
		"-psnr", "60", "-regions", "4", "-seed", "1", "-out", outFile,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"target:           PSNR 60.00 dB", "achieved psnr", "feasible:         true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	// The archive records the objective.
	enc, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := container.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if cn.Header.Objective.Name != "psnr" || cn.Header.Objective.Target != 60 {
		t.Fatalf("header objective = %+v", cn.Header.Objective)
	}

	// -verify against the same reference passes...
	out.Reset()
	err = run([]string{
		"-decompress", outFile, "-verify",
		"-dataset", "Hurricane", "-field", "TCf", "-scale", "tiny",
	}, &out)
	if err != nil {
		t.Fatalf("verify failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verify:           OK") {
		t.Errorf("verify output missing OK:\n%s", out.String())
	}
	// ...and against a different field fails.
	out.Reset()
	err = run([]string{
		"-decompress", outFile, "-verify",
		"-dataset", "Hurricane", "-field", "Pf", "-scale", "tiny",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "verify failed") {
		t.Errorf("verify against the wrong field: err = %v", err)
	}
	// Quality verification without a reference is an explicit error.
	out.Reset()
	if err := run([]string{"-decompress", outFile, "-verify"}, &out); err == nil {
		t.Errorf("verify without a reference should fail")
	}
}

func TestSSIMTargetCompress(t *testing.T) {
	if testing.Short() {
		t.Skip("quality tuning compresses and decompresses repeatedly")
	}
	var out strings.Builder
	err := run([]string{
		"-dataset", "Hurricane", "-field", "TCf", "-scale", "tiny",
		"-ssim", "0.9", "-regions", "4", "-seed", "1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "achieved ssim") {
		t.Errorf("output missing achieved ssim:\n%s", out.String())
	}
}

func TestConflictingTargetsRejected(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-dataset", "Hurricane", "-field", "TCf", "-scale", "tiny",
		"-psnr", "60", "-ssim", "0.9",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "pick one tuning target") {
		t.Errorf("two quality targets: err = %v", err)
	}
	err = run([]string{
		"-dataset", "Hurricane", "-field", "TCf", "-scale", "tiny",
		"-ratio", "10", "-psnr", "60",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "pick one tuning target") {
		t.Errorf("-ratio plus -psnr: err = %v", err)
	}
}

func TestVerifyRatioArchiveNeedsNoReference(t *testing.T) {
	dir := t.TempDir()
	outFile := filepath.Join(dir, "ratio.fraz")
	var out strings.Builder
	err := run([]string{
		"-dataset", "NYX", "-field", "temperature", "-scale", "tiny",
		"-ratio", "8", "-regions", "4", "-seed", "2", "-out", outFile,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-decompress", outFile, "-verify"}, &out); err != nil {
		t.Fatalf("ratio archive verify: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verify:           OK") {
		t.Errorf("ratio verify output:\n%s", out.String())
	}
}

func TestDecompressStillRejectsUnrelatedFlags(t *testing.T) {
	var out strings.Builder
	// Without -verify, input flags stay rejected.
	err := run([]string{"-decompress", "x.fraz", "-dataset", "NYX"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-dataset") {
		t.Errorf("err = %v, want rejection naming -dataset", err)
	}
	// Even with -verify, tuning flags are rejected.
	err = run([]string{"-decompress", "x.fraz", "-verify", "-ratio", "10"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-ratio") {
		t.Errorf("err = %v, want rejection naming -ratio", err)
	}
}

// TestExplicitZeroQualityTargetRejected pins that `-psnr 0` is an invalid
// target, not a silent fall-through to the default ratio.
func TestExplicitZeroQualityTargetRejected(t *testing.T) {
	for _, flag := range []string{"-psnr", "-ssim", "-target-max-error"} {
		var out strings.Builder
		err := run([]string{
			"-dataset", "Hurricane", "-field", "TCf", "-scale", "tiny",
			flag, "0",
		}, &out)
		if err == nil || strings.Contains(out.String(), "target:           ratio") {
			t.Errorf("%s 0: err = %v, output:\n%s", flag, err, out.String())
		}
	}
}
