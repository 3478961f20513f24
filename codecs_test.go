package fraz_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fraz"
	"fraz/internal/experiments"
)

// TestCodecsGolden pins the public registry as one table: every field of
// every descriptor Codecs() returns, in the order it returns them. The
// descriptors are derived from the codec table in internal/pressio, and are
// stable API: a change here is a change callers can see.
func TestCodecsGolden(t *testing.T) {
	want := []fraz.CodecInfo{
		{Name: "flate:lossless", BoundName: "unused (lossless)", ErrorBounded: true, Lossless: true, MinRank: 1, MaxRank: 4, Float32: true, Float64: true},
		{Name: "frsz:rate", BoundName: "bits per value", MinRank: 1, MaxRank: 4, Float32: true, Float64: true, FixedRate: true},
		{Name: "mgard:abs", BoundName: "infinity-norm bound", ErrorBounded: true, MinRank: 2, MaxRank: 3, Float32: true, Float64: true},
		{Name: "mgard:l2", BoundName: "mean-squared-error bound", ErrorBounded: true, MinRank: 2, MaxRank: 3, Float32: true, Float64: true},
		{Name: "sz:abs", BoundName: "absolute error bound", ErrorBounded: true, MinRank: 1, MaxRank: 3, Float32: true, Float64: true},
		{Name: "sz:rel", BoundName: "value-range-relative error bound", ErrorBounded: true, MinRank: 1, MaxRank: 3, Float32: true, Float64: true},
		{Name: "szx:abs", BoundName: "absolute error bound", ErrorBounded: true, MinRank: 1, MaxRank: 4, Float32: true, Float64: true},
		{Name: "zfp:accuracy", BoundName: "absolute error tolerance", ErrorBounded: true, MinRank: 1, MaxRank: 3, Float32: true, Float64: true},
		{Name: "zfp:precision", BoundName: "bit planes per block", MinRank: 1, MaxRank: 3, Float32: true, Float64: true},
		{Name: "zfp:rate", BoundName: "bits per value", MinRank: 1, MaxRank: 3, Float32: true, Float64: true},
	}
	got := fraz.Codecs()
	if len(got) != len(want) {
		t.Fatalf("Codecs() lists %d codecs, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Codecs()[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadmeCodecTable holds the README's "Codecs" table to the registry:
// one row per registered codec, and each row's parameter, error-bounded,
// ranks and dtypes cells say what Codecs() says.
func TestReadmeCodecTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Codecs\n")
	if !ok {
		t.Fatal(`README.md has no "### Codecs" section`)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 6 || !strings.HasPrefix(line, "| `") {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows[strings.Trim(cells[0], "`")] = cells
	}
	infos := fraz.Codecs()
	if len(rows) != len(infos) {
		t.Errorf("README lists %d codecs, the registry %d", len(rows), len(infos))
	}
	for _, ci := range infos {
		cells, ok := rows[ci.Name]
		if !ok {
			t.Errorf("README has no row for %s", ci.Name)
			continue
		}
		bounded := "no"
		switch {
		case ci.Lossless:
			bounded = "lossless"
		case ci.ErrorBounded:
			bounded = "yes"
		case ci.FixedRate:
			bounded = "no (fixed-rate)"
		}
		var dtypes []string
		if ci.Float32 {
			dtypes = append(dtypes, "f32")
		}
		if ci.Float64 {
			dtypes = append(dtypes, "f64")
		}
		want := []string{ci.BoundName, bounded, fmt.Sprintf("%d–%d", ci.MinRank, ci.MaxRank), strings.Join(dtypes, ", ")}
		for i, w := range want {
			if got := cells[2+i]; got != w {
				t.Errorf("README row %s, column %d: %q, registry says %q", ci.Name, 3+i, got, w)
			}
		}
	}
}

// TestDocsNameOnlyExistingCommands keeps the prose honest about what can be
// run: every `cmd/<name>` in the README, doc.go, docs/ and the verify skill
// is a directory under cmd/, and every `frazbench -exp <name>` is an
// experiment frazbench has.
func TestDocsNameOnlyExistingCommands(t *testing.T) {
	files := []string{"README.md", "doc.go", ".claude/skills/verify/SKILL.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	experimentNames := map[string]bool{}
	for _, n := range experiments.Names() {
		experimentNames[n] = true
	}
	command := regexp.MustCompile(`\bcmd/([A-Za-z0-9_]+)`)
	experiment := regexp.MustCompile(`frazbench -exp ([A-Za-z0-9_]+)`)
	for _, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range command.FindAllStringSubmatch(string(text), -1) {
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory under cmd/", file, m[0])
			}
		}
		for _, m := range experiment.FindAllStringSubmatch(string(text), -1) {
			if !experimentNames[m[1]] {
				t.Errorf("%s names %q, which is not one of frazbench's experiments %v", file, m[0], experiments.Names())
			}
		}
	}
}

// TestCodecCapabilityWindows pins the public dtype/rank window contract:
// every in-tree codec declares its element widths, SupportsDType answers by
// the names DecompressResult.DType uses, and the CodecAuto policy name is
// not itself listed as a codec.
func TestCodecCapabilityWindows(t *testing.T) {
	for _, ci := range fraz.Codecs() {
		if ci.Name == fraz.CodecAuto {
			t.Errorf("Codecs() lists the %s policy as a codec", fraz.CodecAuto)
		}
		if !ci.Float32 && !ci.Float64 {
			t.Errorf("%s admits no element width at all: %+v", ci.Name, ci)
		}
		if ci.SupportsDType("float32") != ci.Float32 || ci.SupportsDType("float64") != ci.Float64 {
			t.Errorf("%s: SupportsDType disagrees with the Float32/Float64 fields", ci.Name)
		}
		if ci.SupportsDType("int8") || ci.SupportsDType("") {
			t.Errorf("%s: SupportsDType accepts an unknown dtype name", ci.Name)
		}
	}
	if _, ok := fraz.LookupCodec(fraz.CodecAuto); ok {
		t.Errorf("LookupCodec(%q) resolved — the policy must not masquerade as a codec", fraz.CodecAuto)
	}
}

func TestLookupCodec(t *testing.T) {
	ci, ok := fraz.LookupCodec("mgard:abs")
	if !ok {
		t.Fatal("mgard:abs not registered")
	}
	if ci.SupportsRank(1) || !ci.SupportsRank(2) || !ci.SupportsRank(3) {
		t.Errorf("mgard:abs rank support: %+v", ci)
	}
	if _, ok := fraz.LookupCodec("nope:mode"); ok {
		t.Errorf("LookupCodec accepted an unknown name")
	}
}
