package dataset

import (
	"fmt"
	"os"
	"path/filepath"

	"fraz/internal/grid"
)

// WriteRaw writes a field as little-endian IEEE-754 binary at its own
// width, the layout used by the SDRBench archives (one bare .f32/.dat or
// .f64/.d64 file per field and time-step).
func WriteRaw[T grid.Float](path string, data []T) error {
	if err := os.WriteFile(path, grid.AppendLE(nil, data), 0o666); err != nil {
		return fmt.Errorf("dataset: write %s: %w", path, err)
	}
	return nil
}

// ReadRaw reads a little-endian binary file of T values and validates its
// length against the expected shape.
func ReadRaw[T grid.Float](path string, shape grid.Dims) ([]T, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: read %s: %w", path, err)
	}
	elem := grid.ElemSize[T]()
	if len(raw) != shape.Len()*elem {
		return nil, fmt.Errorf("dataset: %s holds %d bytes, shape %v at %d bytes/value expects %d", path, len(raw), shape, elem, shape.Len()*elem)
	}
	return grid.FromLE[T](raw), nil
}

// ExportSnapshot writes every field of one time-step side by side under
// dir/<app>/t<step>/ — the multi-field snapshot shape `fraz -fields`
// consumes — plus a manifest.txt describing it:
//
//	dims=8x16x16
//	CLOUDf=CLOUDf.f32
//	PRECIPf=PRECIPf.f32
//	...
//
// The first line is the shared grid shape (every field of one application
// snapshot lives on the same grid); each following line maps a field name to
// its raw file, relative to the manifest. The manifest is trivially shell-
// parseable, so a pipeline can reassemble the `-fields` argument with a grep
// and a paste. Returns the manifest path and the number of field files.
func ExportSnapshot(d Dataset, dir string, t int) (string, int, error) {
	if t < 0 || t >= d.TimeSteps {
		return "", 0, fmt.Errorf("%w: %d of %d", ErrBadTimeStep, t, d.TimeSteps)
	}
	stepDir := filepath.Join(dir, d.Name, fmt.Sprintf("t%03d", t))
	if err := os.MkdirAll(stepDir, 0o755); err != nil {
		return "", 0, fmt.Errorf("dataset: mkdir %s: %w", stepDir, err)
	}
	manifest := fmt.Sprintf("dims=%s\n", d.Fields[0].Shape)
	count := 0
	for _, f := range d.Fields {
		if !f.Shape.Equal(d.Fields[0].Shape) {
			return "", count, fmt.Errorf("dataset: %s field %s has shape %s, snapshot manifests need one shared shape (%s)",
				d.Name, f.Name, f.Shape, d.Fields[0].Shape)
		}
		data, _, err := d.Generate(f.Name, t)
		if err != nil {
			return "", count, err
		}
		file := f.Name + ".f32"
		if err := WriteRaw(filepath.Join(stepDir, file), data); err != nil {
			return "", count, err
		}
		manifest += fmt.Sprintf("%s=%s\n", f.Name, file)
		count++
	}
	mpath := filepath.Join(stepDir, "manifest.txt")
	if err := os.WriteFile(mpath, []byte(manifest), 0o644); err != nil {
		return "", count, fmt.Errorf("dataset: write %s: %w", mpath, err)
	}
	return mpath, count, nil
}

// Export writes every field and time-step of the dataset under dir using the
// SDRBench-style layout dir/<app>/<field>_t<step>.f32 and returns the number
// of files written.
func Export(d Dataset, dir string) (int, error) {
	appDir := filepath.Join(dir, d.Name)
	if err := os.MkdirAll(appDir, 0o755); err != nil {
		return 0, fmt.Errorf("dataset: mkdir %s: %w", appDir, err)
	}
	count := 0
	for _, f := range d.Fields {
		for t := 0; t < d.TimeSteps; t++ {
			data, _, err := d.Generate(f.Name, t)
			if err != nil {
				return count, err
			}
			path := filepath.Join(appDir, fmt.Sprintf("%s_t%03d.f32", f.Name, t))
			if err := WriteRaw(path, data); err != nil {
				return count, err
			}
			count++
		}
	}
	return count, nil
}
