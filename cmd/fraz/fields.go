package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fraz"
	"fraz/internal/dataset"
	"fraz/internal/grid"
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

// parseFieldsSpec resolves the -fields flag. Two forms:
//
//	-fields T=temp.f32,P=pres.f32 -dims 64x64     raw files, shared shape
//	-dataset Hurricane -fields CLOUDf,PRECIPf      synthetic dataset fields
//
// Field order follows the spec, so reports are stable.
func parseFieldsSpec(spec, dims, dsName string, timeStep int, scaleName string, wide bool) ([]namedField, error) {
	parts := strings.Split(spec, ",")
	var out []namedField
	seen := map[string]bool{}
	for _, part := range parts {
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
		switch {
		case hasPath:
			if dsName != "" {
				return nil, fmt.Errorf("-fields with name=path entries reads raw files; drop -dataset (or list bare field names to use it)")
			}
			f, err := loadField(strings.TrimSpace(path), dims, "", "", 0, "", wide)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", name, err)
			}
			out = append(out, namedField{name: name, field: f})
		case dsName != "":
			f, err := loadField("", "", dsName, name, timeStep, scaleName, wide)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", name, err)
			}
			out = append(out, namedField{name: name, field: f})
		default:
			return nil, fmt.Errorf("-fields entry %q names no file; use name=path, or add -dataset to generate the field", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fields lists no fields")
	}
	return out, nil
}

// runCompressFields compresses every named field into one dataset archive at
// -out, tuning each to the shared objective. With the auto policy each field
// is sealed with the winner of its own codec race.
func runCompressFields(fields []namedField, codec string, opts []fraz.Option, outPath string, out io.Writer) error {
	if outPath == "" || outPath == "-" {
		return fmt.Errorf("-fields writes a dataset archive and needs -out <file> (stdout is not seekable enough to promise atomic publication)")
	}
	tmp, err := os.CreateTemp(filepath.Dir(outPath), filepath.Base(outPath)+".tmp-*")
	if err != nil {
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	ds, err := fraz.NewDataset(tmp, append([]fraz.Option{fraz.Codec(codec)}, opts...)...)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dataset:          %d fields -> %s (codec policy %s)\n", len(fields), outPath, codec)
	var rawBytes, packedBytes int64
	winners := map[string]int{}
	ctx := context.Background()
	for _, nf := range fields {
		var res *fraz.FieldResult
		var err error
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
	if err := ds.Close(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		tmp = nil
		return err
	}
	if err := os.Rename(tmp.Name(), outPath); err != nil {
		os.Remove(tmp.Name())
		tmp = nil
		return err
	}
	tmp = nil

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
		float64(rawBytes)/float64(packedBytes), rawBytes, archiveSize(outPath))
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
func runDatasetDecompress(inPath, fieldName string, step int, outPath string, verify bool, wantDType string, ref refLoader, out io.Writer) error {
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := fraz.OpenDataset(f)
	if err != nil {
		return fmt.Errorf("%s: %w", inPath, err)
	}
	infos := ds.Fields()
	if fieldName == "" {
		fmt.Fprintf(out, "dataset:          %s (.frazd, %d entries)\n", inPath, len(infos))
		for _, fi := range infos {
			fmt.Fprintf(out, "  %s@%d: %d bytes at offset %d\n", fi.Name, fi.Step, fi.Bytes, fi.Offset)
		}
		fmt.Fprintf(out, "pick one with -field <name> (and -step <n> for time series)\n")
		return nil
	}
	res, err := ds.OpenFieldStep(context.Background(), fieldName, step)
	if err != nil {
		return fmt.Errorf("%s: field %s@%d: %w", inPath, fieldName, step, err)
	}
	if wantDType != "" && wantDType != res.DType {
		return fmt.Errorf("%s@%d holds %s data, but -dtype %s was requested; the header is authoritative, so drop the flag", fieldName, step, res.DType, wantDType)
	}
	shape := grid.Dims(res.Shape)
	fmt.Fprintf(out, "field:            %s@%d of %s (codec=%s dtype=%s shape=%s bound=%g ratio=%.2f)\n",
		fieldName, step, inPath, res.Codec, res.DType, shape, res.ErrorBound, res.Ratio)
	if res.Objective != nil {
		fmt.Fprintf(out, "objective:        %s target %g (±%g), achieved %.6g at seal time\n",
			res.Objective.Name, res.Objective.Target, res.Objective.Tolerance, res.Objective.Achieved)
	}
	values, elemSize := decodedValues(res)
	fmt.Fprintf(out, "reconstructed:    %d values (%s %s, %.2f MB)\n", values, shape, res.DType, float64(elemSize*values)/1e6)
	switch {
	case outPath == "-":
		if _, err := writeRawTo(stdout, res.Data, res.Data64); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d bytes to <stdout>\n", elemSize*values)
	case outPath != "":
		var werr error
		if res.Data64 != nil {
			werr = dataset.WriteRaw(outPath, res.Data64)
		} else {
			werr = dataset.WriteRaw(outPath, res.Data)
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(out, "wrote %d bytes to %s\n", elemSize*values, outPath)
	}
	if verify {
		return runVerify(res, ref, out)
	}
	return nil
}
