package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"fraz"
)

// This file is the CLI's multi-field mode: -fields compresses several named
// fields into one .frazd dataset archive (racing codecs per field unless a
// -compressor is named), and -decompress on a dataset archive lists or
// extracts individual fields.

// namedField pairs a field name with its loaded data.
type namedField struct {
	name  string
	field inputField
}

// parseFieldsSpec resolves the -fields flag against the input flags. Two
// forms:
//
//	-fields T=temp.f32,P=pres.f32 -dims 64x64     raw files, shared shape
//	-dataset Hurricane -fields CLOUDf,PRECIPf      synthetic dataset fields
//
// Field order follows the spec, so reports are stable.
func parseFieldsSpec(spec string, src source, wide bool) ([]namedField, error) {
	var out []namedField
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, path, hasPath := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-fields entry %q has an empty name", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("-fields names %q twice", name)
		}
		seen[name] = true
		one := src // the synthetic form: the named field of the -dataset
		one.field = name
		switch {
		case hasPath && src.dataset != "":
			return nil, fmt.Errorf("-fields with name=path entries reads raw files; drop -dataset (or list bare field names to use it)")
		case hasPath:
			one = source{in: strings.TrimSpace(path), dims: src.dims}
		case src.dataset == "":
			return nil, fmt.Errorf("-fields entry %q names no file; use name=path, or add -dataset to generate the field", part)
		}
		f, err := one.load(wide)
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", name, err)
		}
		out = append(out, namedField{name: name, field: f})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fields lists no fields")
	}
	return out, nil
}

// runCompressFields compresses every named field into one dataset archive at
// -out, tuning each to the shared objective. The codec policy defaults to
// the race unless a codec was named: with it each field is sealed with the
// winner of its own codec race.
func (f *flags) runCompressFields(wide bool, opts []fraz.Option, targetDesc string, out io.Writer) error {
	codec := f.compressor
	if !f.auto && !f.wasSet("compressor") {
		codec = fraz.CodecAuto
	}
	fields, err := parseFieldsSpec(f.fields, f.source, wide)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "target:           %s\n", targetDesc)
	if f.out == "" || f.out == "-" {
		return fmt.Errorf("-fields writes a dataset archive and needs -out <file> (stdout is not seekable enough to promise atomic publication)")
	}
	fmt.Fprintf(out, "dataset:          %d fields -> %s (codec policy %s)\n", len(fields), f.out, codec)
	var rawBytes, packedBytes int64
	winners := map[string]int{}
	err = publish(f.out, func(w io.Writer) error {
		ds, err := fraz.NewDataset(w, append([]fraz.Option{fraz.Codec(codec)}, opts...)...)
		if err != nil {
			return err
		}
		ctx := context.Background()
		for _, nf := range fields {
			var res *fraz.FieldResult
			if nf.field.f64 != nil {
				res, err = ds.AppendStep64(ctx, nf.name, 0, nf.field.f64, []int(nf.field.shape))
			} else {
				res, err = ds.AppendStep(ctx, nf.name, 0, nf.field.f32, []int(nf.field.shape))
			}
			var infeasible *fraz.InfeasibleError
			if errors.As(err, &infeasible) {
				fmt.Fprintf(out, "field %-12s infeasible: closest ratio %.2f at bound %g\n", nf.name+":", infeasible.ClosestRatio, infeasible.ErrorBound)
				printInfeasibleNote(out)
				return err
			}
			if err != nil {
				return fmt.Errorf("field %s: %w", nf.name, err)
			}
			rawBytes += int64(nf.field.values() * nf.field.elemSize())
			packedBytes += res.BytesWritten
			winners[res.Codec]++
			line := fmt.Sprintf("field %-12s codec=%s bound=%g ratio=%.2f (%d bytes)", nf.name+":", res.Codec, res.ErrorBound, res.Ratio, res.BytesWritten)
			if res.Selection != nil {
				line += fmt.Sprintf(", raced %d codecs", len(res.Selection.Raced()))
			}
			if res.Objective != "ratio" && res.Objective != "" {
				line += fmt.Sprintf(", %s %.4g", res.Objective, res.AchievedValue)
			}
			fmt.Fprintln(out, line)
		}
		return ds.Close()
	})
	if err != nil {
		return err
	}

	var names []string
	for n := range winners {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s x%d", n, winners[n]))
	}
	fmt.Fprintf(out, "codecs selected:  %s\n", strings.Join(parts, ", "))
	fmt.Fprintf(out, "aggregate ratio:  %.2f (%d raw bytes -> %d archive bytes)\n",
		float64(rawBytes)/float64(packedBytes), rawBytes, archiveSize(f.out))
	return nil
}

func archiveSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// isDatasetArchive sniffs a file's first bytes for the .frazd magic, routing
// -decompress between the single-container and dataset paths.
func isDatasetArchive(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var head [4]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return false
	}
	return head[0] == 'F' && head[1] == 'R' && head[2] == 'Z' && head[3] == 0xA1
}

// runDatasetDecompress lists a dataset archive (no -field) or extracts one
// field@step from it, with the same -out / -verify semantics as the
// single-container path.
func (f *flags) runDatasetDecompress(wantDType string, out io.Writer) error {
	file, err := os.Open(f.decompress)
	if err != nil {
		return err
	}
	defer file.Close()
	ds, err := fraz.OpenDataset(file)
	if err != nil {
		return fmt.Errorf("%s: %w", f.decompress, err)
	}
	if f.field == "" {
		infos := ds.Fields()
		fmt.Fprintf(out, "dataset:          %s (.frazd, %d entries)\n", f.decompress, len(infos))
		for _, fi := range infos {
			fmt.Fprintf(out, "  %s@%d: %d bytes at offset %d\n", fi.Name, fi.Step, fi.Bytes, fi.Offset)
		}
		fmt.Fprintf(out, "pick one with -field <name> (and -step <n> for time series)\n")
		return nil
	}
	res, err := ds.OpenFieldStep(context.Background(), f.field, f.step)
	if err != nil {
		return fmt.Errorf("%s: field %s@%d: %w", f.decompress, f.field, f.step, err)
	}
	entry := fmt.Sprintf("%s@%d", f.field, f.step)
	return f.finishDecompress(res, entry, fmt.Sprintf("field:            %s of %s (", entry, f.decompress), wantDType, out)
}
