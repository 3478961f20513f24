package server

import "fraz/internal/grid"

// Raw field bodies are little-endian IEEE-754 on the wire — the layout
// SDRBench archives, the datagen tool, and the fraz CLI's -in/-out files
// all share — regardless of host byte order (grid.AppendLE / DecodeLE).

// decodeRaw turns a request body whose length the handler has already
// checked against the shape into values.
func decodeRaw[T grid.Float](b []byte) []T {
	out := make([]T, len(b)/grid.ElemSize[T]())
	grid.DecodeLE(out, b)
	return out
}

// encodeRaw is the response body for a decoded field, whichever of the two
// views the result carries.
func encodeRaw(f32 []float32, f64 []float64) []byte {
	if f64 != nil {
		return grid.AppendLE(nil, f64)
	}
	return grid.AppendLE(nil, f32)
}
