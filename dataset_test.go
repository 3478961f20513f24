package fraz_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"fraz"
)

func TestDatasetRoundTrip(t *testing.T) {
	ctx := context.Background()
	smooth, shape := testField()
	noisy, _ := noisyField()

	var buf bytes.Buffer
	ds, err := fraz.NewDataset(&buf, fraz.TargetMaxError(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	smoothRes, err := ds.AddField(ctx, "CLOUD", smooth, shape)
	if err != nil {
		t.Fatal(err)
	}
	if smoothRes.Selection == nil {
		t.Error("dataset built without a Codec option did not race codecs")
	}
	if _, err := ds.AddField(ctx, "NOISE", noisy, shape); err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Fields()); got != 2 {
		t.Fatalf("write-mode Fields() lists %d entries, want 2", got)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := fraz.OpenDataset(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	names := rd.FieldNames()
	if len(names) != 2 || names[0] != "CLOUD" || names[1] != "NOISE" {
		t.Fatalf("FieldNames() = %v", names)
	}
	for name, orig := range map[string][]float32{"CLOUD": smooth, "NOISE": noisy} {
		out, err := rd.OpenField(ctx, name)
		if err != nil {
			t.Fatalf("OpenField(%s): %v", name, err)
		}
		if diff := maxAbsDiff(orig, out.Data); diff > 1e-2+1e-3 {
			t.Errorf("%s: max abs error %g exceeds the 1e-2 target band", name, diff)
		}
		if out.Codec == "" || out.Codec == fraz.CodecAuto {
			t.Errorf("%s: container header names codec %q", name, out.Codec)
		}
	}
}

func TestDatasetFixedCodecOption(t *testing.T) {
	data, shape := testField()
	var buf bytes.Buffer
	ds, err := fraz.NewDataset(&buf, fraz.Codec("zfp:accuracy"), fraz.Ratio(6), fraz.Tolerance(0.5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.AddField(context.Background(), "U", data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selection != nil {
		t.Error("fixed-codec dataset reported a codec race")
	}
	if res.CompressResult.Codec != "zfp:accuracy" {
		t.Errorf("sealed with %q, want zfp:accuracy", res.CompressResult.Codec)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDatasetAppendPreservesPayloadBytes is the public-API form of the
// append pin: adding a time step rewrites only the trailing directory —
// every previously written payload byte, offset, and CRC is untouched.
func TestDatasetAppendPreservesPayloadBytes(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "steps.frazd")
	data, shape := testField()

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := fraz.NewDataset(f, fraz.TargetMaxError(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AppendStep(ctx, "CLOUD", 0, data, shape); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd0, err := fraz.OpenDataset(bytes.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	prior := rd0.Fields()

	rw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds, err = fraz.AppendDataset(rw, fraz.TargetMaxError(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	step1 := make([]float32, len(data))
	for i, v := range data {
		step1[i] = v * 1.05
	}
	if _, err := ds.AppendStep(ctx, "CLOUD", 1, step1, shape); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd1, err := fraz.OpenDataset(bytes.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	if steps := rd1.Steps("CLOUD"); len(steps) != 2 || steps[0] != 0 || steps[1] != 1 {
		t.Fatalf("Steps(CLOUD) = %v, want [0 1]", steps)
	}
	for _, p := range prior {
		found := false
		for _, e := range rd1.Fields() {
			if e.Name == p.Name && e.Step == p.Step {
				found = true
				if e.Offset != p.Offset || e.Bytes != p.Bytes || e.CRC != p.CRC {
					t.Errorf("entry %s@%d moved: %+v -> %+v", p.Name, p.Step, p, e)
				}
				if !bytes.Equal(before[p.Offset:p.Offset+p.Bytes], after[p.Offset:p.Offset+p.Bytes]) {
					t.Errorf("payload bytes of %s@%d changed across append", p.Name, p.Step)
				}
			}
		}
		if !found {
			t.Errorf("entry %s@%d lost across append", p.Name, p.Step)
		}
	}
	out, err := rd1.OpenFieldStep(ctx, "CLOUD", 1)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(step1, out.Data); diff > 1e-2+1e-3 {
		t.Errorf("appended step max abs error %g exceeds the target band", diff)
	}
}

// TestDatasetAppendReportsWhereTheFieldLanded appends to an archive whose
// directory lists its entries in reverse offset order, which the format
// allows: the appended field lands after the last payload, not after the
// last-listed one, and FieldResult.Offset must say where.
func TestDatasetAppendReportsWhereTheFieldLanded(t *testing.T) {
	ctx := context.Background()
	data, shape := testField()
	var payloads [2][]byte
	for i := range payloads {
		var buf bytes.Buffer
		if _, err := fraz.Compress(ctx, &buf, data, shape, fraz.Codec("sz:abs"), fraz.FixedBound(float64(i+1)*1e-2), fraz.Blocks(1)); err != nil {
			t.Fatal(err)
		}
		payloads[i] = buf.Bytes()
	}
	archive := []byte{'F', 'R', 'Z', 0xA1, 1, 0, 0, 0}
	offsets := make([]int, len(payloads))
	for i, p := range payloads {
		offsets[i] = len(archive)
		archive = append(archive, p...)
	}
	dirOff := len(archive)
	dir := binary.LittleEndian.AppendUint32(nil, uint32(len(payloads)))
	for i := len(payloads) - 1; i >= 0; i-- {
		dir = append(dir, 1, byte('a'+i)) // name "a" or "b"
		dir = binary.LittleEndian.AppendUint32(dir, 0)
		dir = binary.LittleEndian.AppendUint64(dir, uint64(offsets[i]))
		dir = binary.LittleEndian.AppendUint64(dir, uint64(len(payloads[i])))
		dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(payloads[i]))
	}
	dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(dir))
	archive = append(archive, dir...)
	archive = binary.LittleEndian.AppendUint64(archive, uint64(dirOff))
	archive = binary.LittleEndian.AppendUint32(archive, uint32(len(dir)))
	archive = append(archive, 'F', 'R', 'Z', 0xA2)

	path := filepath.Join(t.TempDir(), "reversed.frazd")
	if err := os.WriteFile(path, archive, 0o600); err != nil {
		t.Fatal(err)
	}
	rw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	ds, err := fraz.AppendDataset(rw, fraz.Codec("sz:abs"), fraz.FixedBound(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.AddField(ctx, "c", data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Offset != int64(dirOff) {
		t.Errorf("AddField reports offset %d, the field landed at %d", res.Offset, dirOff)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := fraz.OpenDataset(bytes.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rd.Fields() {
		if f.Name == "c" && (f.Offset != res.Offset || !bytes.HasPrefix(after[f.Offset:], []byte("FRZ\x01"))) {
			t.Errorf("directory puts c at %d, AddField reported %d", f.Offset, res.Offset)
		}
	}
}

func TestDatasetModeAndDuplicateErrors(t *testing.T) {
	ctx := context.Background()
	data, shape := testField()

	var buf bytes.Buffer
	ds, err := fraz.NewDataset(&buf, fraz.TargetMaxError(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AddField(ctx, "T", data, shape); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AddField(ctx, "T", data, shape); !errors.Is(err, fraz.ErrDuplicateField) {
		t.Errorf("duplicate AddField error = %v, want ErrDuplicateField", err)
	}
	if _, err := ds.OpenField(ctx, "T"); err == nil {
		t.Error("OpenField on a write-mode dataset succeeded")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AddField(ctx, "late", data, shape); err == nil {
		t.Error("AddField after Close succeeded")
	}

	rd, err := fraz.OpenDataset(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.OpenField(ctx, "missing"); !errors.Is(err, fraz.ErrFieldNotFound) {
		t.Errorf("missing field error = %v, want ErrFieldNotFound", err)
	}
	if _, err := rd.AddField(ctx, "T", data, shape); err == nil {
		t.Error("AddField on a read-mode dataset succeeded")
	}

	if _, err := fraz.OpenDataset(bytes.NewReader([]byte("not an archive"))); !errors.Is(err, fraz.ErrCorrupt) {
		t.Errorf("OpenDataset on junk = %v, want ErrCorrupt", err)
	}
}
