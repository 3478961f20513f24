package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"fraz/internal/container"
	"fraz/internal/grid"
)

// testContainer builds a small single-field container with a deterministic
// payload, without going through any codec.
func testContainer(t *testing.T, codec string, seed byte) container.Container {
	t.Helper()
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = seed + byte(i)
	}
	cn, err := container.New(codec, 1e-3, 4.0, container.Float32, grid.MustDims(4, 4), [][]byte{payload})
	if err != nil {
		t.Fatalf("container.New: %v", err)
	}
	return cn
}

// add encodes cn and appends it to w as name@step.
func add(t testing.TB, w *Writer, name string, step int, cn container.Container) error {
	t.Helper()
	enc, err := cn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Add(name, step, enc)
	return err
}

// buildArchive writes an archive with the given (name, step, container)
// triples and returns its bytes.
func buildArchive(t *testing.T, fields []struct {
	name string
	step int
	cn   container.Container
}) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, f := range fields {
		if err := add(t, w, f.name, f.step, f.cn); err != nil {
			t.Fatalf("Add(%s@%d): %v", f.name, f.step, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	fields := []struct {
		name string
		step int
		cn   container.Container
	}{
		{"pressure", 0, testContainer(t, "sz:abs", 1)},
		{"velocity", 0, testContainer(t, "zfp:accuracy", 2)},
		{"pressure", 1, testContainer(t, "sz:abs", 3)},
	}
	data := buildArchive(t, fields)

	r, err := OpenReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "pressure" || got[1] != "velocity" {
		t.Fatalf("Names() = %v", got)
	}
	if got := r.Entries(); len(got) != 3 || got[0].Name != "pressure" || got[0].Step != 0 || got[1].Step != 1 || got[2].Name != "velocity" {
		t.Fatalf("Entries() = %+v, want pressure@0, pressure@1, velocity@0", got)
	}
	for _, f := range fields {
		cn, err := r.Open(f.name, f.step)
		if err != nil {
			t.Fatalf("Open(%s@%d): %v", f.name, f.step, err)
		}
		if cn.Header.Codec != f.cn.Header.Codec {
			t.Errorf("%s@%d codec = %q, want %q", f.name, f.step, cn.Header.Codec, f.cn.Header.Codec)
		}
		if !bytes.Equal(cn.Payload, f.cn.Payload) {
			t.Errorf("%s@%d payload differs", f.name, f.step)
		}
	}
	if _, err := r.Open("missing", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Open(missing) = %v, want ErrNotFound", err)
	}
	if _, err := r.Open("pressure", 7); !errors.Is(err, ErrNotFound) {
		t.Errorf("Open(pressure@7) = %v, want ErrNotFound", err)
	}
}

func TestAddRejectsDuplicatesAndBadNames(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	cn := testContainer(t, "sz:abs", 9)
	if err := add(t, w, "f", 0, cn); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := add(t, w, "f", 0, cn); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate Add = %v, want ErrDuplicate", err)
	}
	if err := add(t, w, "", 0, cn); err == nil {
		t.Error("empty name accepted")
	}
	if err := add(t, w, "f", -1, cn); err == nil {
		t.Error("negative step accepted")
	}
	enc, err := cn.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := w.Add("raw", 0, enc[4:]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Add of a non-.fraz payload = %v, want ErrCorrupt", err)
	}
	if _, err := w.Add("ok", 0, enc); err != nil {
		t.Errorf("Add of an encoded container: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := add(t, w, "late", 0, cn); err == nil {
		t.Error("Add after Close accepted")
	}
	if err := w.Close(); err == nil {
		t.Error("second Close accepted")
	}
}

// TestAppendPreservesPriorBytes pins the append-mode invariant: adding a
// time step rewrites only the directory and footer — every previously
// written payload byte keeps its offset, content, and CRC.
func TestAppendPreservesPriorBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.frazd")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := add(t, w, "density", 0, testContainer(t, "sz:abs", 11)); err != nil {
		t.Fatal(err)
	}
	if err := add(t, w, "energy", 0, testContainer(t, "mgard:abs", 12)); err != nil {
		t.Fatal(err)
	}
	before := w.Entries()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := AppendTo(rw)
	if err != nil {
		t.Fatalf("AppendTo: %v", err)
	}
	if n := len(aw.Entries()); n != 2 {
		t.Fatalf("AppendTo carried %d entries, want 2", n)
	}
	if err := add(t, aw, "density", 1, testContainer(t, "sz:abs", 13)); err != nil {
		t.Fatal(err)
	}
	if err := add(t, aw, "density", 0, testContainer(t, "sz:abs", 14)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("append of an existing (field, step) = %v, want ErrDuplicate", err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}

	appended, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(appended))
	if err != nil {
		t.Fatalf("OpenReader after append: %v", err)
	}
	if got := r.Entries(); len(got) != 3 {
		t.Fatalf("entries after append = %+v, want three", got)
	}
	for _, e := range before {
		after, ok := r.Lookup(e.Name, e.Step)
		if !ok {
			t.Fatalf("entry %s@%d lost on append", e.Name, e.Step)
		}
		if after.Offset != e.Offset || after.Length != e.Length || after.CRC != e.CRC {
			t.Errorf("entry %s@%d moved: %+v -> %+v", e.Name, e.Step, e, after)
		}
		was := original[e.Offset : e.Offset+e.Length]
		now := appended[after.Offset : after.Offset+after.Length]
		if !bytes.Equal(was, now) {
			t.Errorf("payload bytes of %s@%d changed on append", e.Name, e.Step)
		}
		if crc32.ChecksumIEEE(now) != e.CRC {
			t.Errorf("payload CRC of %s@%d changed on append", e.Name, e.Step)
		}
	}
}

// TestHandAssembledArchive pins the byte layout: an archive assembled by
// hand, field by field from the format comment, must decode — so the layout
// documented there is the layout implemented, and any accidental format
// change breaks this test rather than old archives.
func TestHandAssembledArchive(t *testing.T) {
	cn := testContainer(t, "sz:abs", 21)
	payload, err := cn.Encode()
	if err != nil {
		t.Fatal(err)
	}

	var b []byte
	b = append(b, 'F', 'R', 'Z', 0xA1) // magic
	b = append(b, 1, 0)                // version 1
	b = append(b, 0, 0)                // reserved
	off := len(b)
	b = append(b, payload...)
	dirOff := len(b)

	var dir []byte
	dir = binary.LittleEndian.AppendUint32(dir, 1) // entry count
	dir = append(dir, 4)                           // name length
	dir = append(dir, "temp"...)
	dir = binary.LittleEndian.AppendUint32(dir, 3)                    // step
	dir = binary.LittleEndian.AppendUint64(dir, uint64(off))          // offset
	dir = binary.LittleEndian.AppendUint64(dir, uint64(len(payload))) // length
	dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(payload))
	dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(dir))
	b = append(b, dir...)

	b = binary.LittleEndian.AppendUint64(b, uint64(dirOff))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dir)))
	b = append(b, 'F', 'R', 'Z', 0xA2) // footer magic

	r, err := OpenReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("OpenReader(hand-assembled): %v", err)
	}
	got, err := r.Open("temp", 3)
	if err != nil {
		t.Fatalf("Open(temp@3): %v", err)
	}
	if got.Header.Codec != "sz:abs" || !bytes.Equal(got.Payload, cn.Payload) {
		t.Errorf("decoded container differs from the one assembled")
	}

	// The writer must produce exactly these bytes for the same input, so the
	// hand layout and the implementation cannot drift apart.
	written := buildArchive(t, []struct {
		name string
		step int
		cn   container.Container
	}{{"temp", 3, cn}})
	if !bytes.Equal(written, b) {
		t.Errorf("writer output differs from hand-assembled bytes")
	}
}

func TestHostileInputs(t *testing.T) {
	valid := buildArchive(t, []struct {
		name string
		step int
		cn   container.Container
	}{
		{"a", 0, testContainer(t, "sz:abs", 31)},
		{"b", 2, testContainer(t, "zfp:rate", 32)},
	})

	// Every truncation must fail with an error, never panic.
	for n := 0; n < len(valid); n++ {
		if _, err := OpenReader(bytes.NewReader(valid[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Every single-byte corruption must error or decode; it must never panic.
	// (Payload flips are caught by entry CRCs; header/directory/footer flips
	// by the structural checks.)
	for i := 0; i < len(valid); i++ {
		mut := bytes.Clone(valid)
		mut[i] ^= 0xFF
		r, err := OpenReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		for _, e := range r.Entries() {
			_, _ = r.Open(e.Name, e.Step) // must not panic
		}
	}

	// Directory CRC flip is detected as corruption.
	mut := bytes.Clone(valid)
	mut[len(mut)-footerSize-1] ^= 0xFF
	if _, err := OpenReader(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt directory CRC = %v, want ErrCorrupt", err)
	}

	// A directory with two entries for the same (field, step) is rejected.
	cn := testContainer(t, "sz:abs", 33)
	payload, err := cn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var b []byte
	b = append(b, 'F', 'R', 'Z', 0xA1, 1, 0, 0, 0)
	off := len(b)
	b = append(b, payload...)
	dirOff := len(b)
	var dir []byte
	dir = binary.LittleEndian.AppendUint32(dir, 2)
	for i := 0; i < 2; i++ {
		dir = append(dir, 1, 'x')
		dir = binary.LittleEndian.AppendUint32(dir, 0)
		dir = binary.LittleEndian.AppendUint64(dir, uint64(off))
		dir = binary.LittleEndian.AppendUint64(dir, uint64(len(payload)))
		dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(payload))
	}
	dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(dir))
	b = append(b, dir...)
	b = binary.LittleEndian.AppendUint64(b, uint64(dirOff))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dir)))
	b = append(b, 'F', 'R', 'Z', 0xA2)
	if _, err := OpenReader(bytes.NewReader(b)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate directory entries = %v, want ErrDuplicate", err)
	}

	// Unknown version and wrong magic.
	mut = bytes.Clone(valid)
	mut[4] = 99
	if _, err := OpenReader(bytes.NewReader(mut)); !errors.Is(err, ErrVersion) {
		t.Errorf("future version = %v, want ErrVersion", err)
	}
	mut = bytes.Clone(valid)
	mut[3] = 0x01 // single-field container magic
	if _, err := OpenReader(bytes.NewReader(mut)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("single-field magic = %v, want ErrBadMagic", err)
	}
}

func TestEmptyArchive(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("OpenReader(empty): %v", err)
	}
	if len(r.Entries()) != 0 || len(r.Names()) != 0 {
		t.Errorf("empty archive lists entries: %v", r.Entries())
	}
}
