package main

import (
	"fmt"
	"io"
	"os"

	"fraz/internal/grid"
)

// This file makes the CLI pipeline-friendly: `-in -` reads the raw field
// from standard input, `-out -` streams the result (a .fraz container when
// compressing, a raw field when decompressing) to standard output, and
// `-decompress -` reads the archive from standard input. When standard
// output carries the data stream, the human-readable report moves to
// standard error, so
//
//	datagen ... | fraz -in - -dims 100x500x500 -out - | ssh host 'cat > f.fraz'
//	curl -s host/v1/archives/abc | fraz -decompress - -out - > field.f32
//
// compose the way Unix tools should.

// stdin/stdout/stderr are the process streams, indirected so tests can
// substitute buffers.
var (
	stdin  io.Reader = os.Stdin
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

// stdinField reads a whole raw little-endian field from standard input at
// the given width.
func stdinField(dims string, wide bool) (inputField, error) {
	shape, err := grid.ParseDims(dims)
	if err != nil {
		return inputField{}, fmt.Errorf("-dims (required with -in): %w", err)
	}
	elemSize := 4
	if wide {
		elemSize = 8
	}
	want := shape.Len() * elemSize
	raw, err := io.ReadAll(stdin)
	if err != nil {
		return inputField{}, fmt.Errorf("reading stdin: %w", err)
	}
	if len(raw) != want {
		return inputField{}, fmt.Errorf("stdin carried %d bytes; shape %s at %d bytes/value needs exactly %d", len(raw), shape, elemSize, want)
	}
	f := inputField{shape: shape, label: "<stdin>"}
	if wide {
		f.f64 = grid.FromLE[float64](raw)
	} else {
		f.f32 = grid.FromLE[float32](raw)
	}
	return f, nil
}

// writeRawTo streams the reconstructed field as raw little-endian bytes —
// the same layout ReadRaw/WriteRaw use for files.
func writeRawTo(w io.Writer, f32 []float32, f64 []float64) (int, error) {
	if f64 != nil {
		return w.Write(grid.AppendLE(nil, f64))
	}
	return w.Write(grid.AppendLE(nil, f32))
}
