package archive

import (
	"bytes"
	"testing"

	"fraz/internal/container"
	"fraz/internal/grid"
)

// FuzzReader drives OpenReader — and, when the directory parses, every
// field's lazy Open — with arbitrary bytes. The invariant under test is the
// same one the container fuzzer pins: hostile input (truncations, corrupt
// directories, duplicate names, nonsense offsets) is answered with an
// error, never a panic or an unbounded allocation.
func FuzzReader(f *testing.F) {
	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cn, err := container.New("sz:abs", 1e-3, 4, container.Float32, grid.MustDims(2, 4), [][]byte{payload})
	if err != nil {
		f.Fatal(err)
	}

	var one bytes.Buffer
	w, err := NewWriter(&one)
	if err != nil {
		f.Fatal(err)
	}
	if err := add(f, w, "temp", 0, cn); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(one.Bytes())

	var empty bytes.Buffer
	w, err = NewWriter(&empty)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add(one.Bytes()[:len(one.Bytes())/2])
	f.Add([]byte("FRZ\xa1junk"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range r.Entries() {
			_, _ = r.Open(e.Name, e.Step)
		}
	})
}
