package fraz

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"

	"fraz/internal/archive"
)

// Dataset is the multi-field form of the framework: one `.frazd` archive
// holding many named fields — and, per field, many time steps — each sealed
// as its own embedded `.fraz` container with its own codec, bound, and
// objective record. It is the unit the paper's experiments operate on (a
// simulation snapshot is fields like CLOUD, PRECIP, U, V, W over a shared
// grid), and the natural home of CodecAuto: a dataset built without a Codec
// option races the registered codecs per field and seals each with its
// winner, because one field's best codec is routinely another's worst.
//
// A Dataset is in exactly one mode:
//
//   - NewDataset(w, opts...) writes a fresh archive: AddField/AppendStep
//     compress fields in, Close writes the directory.
//   - AppendDataset(rw, opts...) reopens an existing archive to add steps
//     or fields; prior payload bytes are never rewritten (only the trailing
//     directory and footer move).
//   - OpenDataset(r) reads: Fields lists the directory, OpenField lazily
//     decodes one field without touching the others' bytes.
//
// Methods of the wrong mode fail with an explicit error. A Dataset is safe
// for concurrent use, but writes are serialized — the archive is one
// stream.
type Dataset struct {
	c *Client

	mu     sync.Mutex
	w      *archive.Writer
	r      *archive.Reader
	closed bool
}

// NewDataset starts a fresh dataset archive on w. The options configure the
// per-field compression exactly as New does — a tuning target is required
// before the first AddField — and the codec defaults to CodecAuto, so each
// field is sealed with the winner of its own codec race:
//
//	ds, err := fraz.NewDataset(f, fraz.TargetPSNR(60))
//	_, err = ds.AddField(ctx, "CLOUD", cloud, shape)
//	_, err = ds.AddField(ctx, "PRECIP", precip, shape)
//	err = ds.Close()
//
// Nothing but the fixed 8-byte archive header is written until the first
// field; the directory is written by Close, which must be called for the
// archive to be readable.
func NewDataset(w io.Writer, opts ...Option) (*Dataset, error) {
	c, err := New(CodecAuto, opts...)
	if err != nil {
		return nil, err
	}
	aw, err := archive.NewWriter(w)
	if err != nil {
		return nil, wrapStreamErr(err)
	}
	return &Dataset{c: c, w: aw}, nil
}

// AppendDataset reopens an existing dataset archive for appending — the
// time-step shape of use, where each simulation step adds field@step entries
// to the same archive. Existing payload bytes keep their offsets and
// content; only the directory and footer at the archive's tail are
// rewritten, by Close. The options configure compression for the new
// entries only (existing entries keep whatever codec sealed them).
func AppendDataset(rw io.ReadWriteSeeker, opts ...Option) (*Dataset, error) {
	c, err := New(CodecAuto, opts...)
	if err != nil {
		return nil, err
	}
	aw, err := archive.AppendTo(rw)
	if err != nil {
		return nil, wrapStreamErr(err)
	}
	return &Dataset{c: c, w: aw}, nil
}

// OpenDataset opens a dataset archive for reading. Only the directory is
// read eagerly — one seek from the end — so opening a many-gigabyte archive
// to extract one field costs that field's bytes, not the archive's.
// Archives with a bad magic, version, directory CRC, or truncated tail fail
// with ErrCorrupt.
func OpenDataset(r io.ReadSeeker) (*Dataset, error) {
	ar, err := archive.OpenReader(r)
	if err != nil {
		return nil, wrapStreamErr(err)
	}
	return &Dataset{r: ar}, nil
}

// FieldInfo describes one directory entry of a dataset archive.
type FieldInfo struct {
	// Name is the field's name; Step its time step (0 for single-snapshot
	// fields).
	Name string
	Step int
	// Offset and Bytes locate the field's embedded .fraz container inside
	// the archive; CRC is the checksum the payload is verified against on
	// open. Offsets of existing entries survive appends — that invariance is
	// what makes AppendDataset cheap and safe.
	Offset int64
	Bytes  int64
	CRC    uint32
}

// FieldResult reports one AddField/AppendStep: the compression outcome (with
// the codec race's Selection when the dataset runs CodecAuto) plus where the
// field landed in the archive.
type FieldResult struct {
	CompressResult
	// Name and Step identify the entry.
	Name string
	Step int
	// Offset is the entry's byte offset in the archive.
	Offset int64
}

// AddField compresses one single-precision field into the dataset at step 0.
// Fields added this way pair with OpenField; time series go through
// AppendStep.
func (d *Dataset) AddField(ctx context.Context, name string, data []float32, shape []int) (*FieldResult, error) {
	return AddFieldT(ctx, d, name, 0, data, shape)
}

// AddField64 is AddField for double-precision fields.
func (d *Dataset) AddField64(ctx context.Context, name string, data []float64, shape []int) (*FieldResult, error) {
	return AddFieldT(ctx, d, name, 0, data, shape)
}

// AppendStep compresses one field at one time step into the dataset. Steps
// need not arrive in order, but each (name, step) pair can exist only once
// (ErrDuplicateField otherwise).
func (d *Dataset) AppendStep(ctx context.Context, name string, step int, data []float32, shape []int) (*FieldResult, error) {
	return AddFieldT(ctx, d, name, step, data, shape)
}

// AppendStep64 is AppendStep for double-precision fields.
func (d *Dataset) AppendStep64(ctx context.Context, name string, step int, data []float64, shape []int) (*FieldResult, error) {
	return AddFieldT(ctx, d, name, step, data, shape)
}

// AddFieldT is the dtype-generic form of AddField/AppendStep, mirroring
// CompressT.
func AddFieldT[T Element](ctx context.Context, d *Dataset, name string, step int, data []T, shape []int) (*FieldResult, error) {
	buf, err := newBuffer(data, shape)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.w == nil {
		return nil, fmt.Errorf("fraz: dataset is read-only (opened with OpenDataset)")
	}
	if d.closed {
		return nil, fmt.Errorf("fraz: dataset is closed")
	}
	// Tuning can fail (infeasible target, cancelled context); staging the
	// container keeps a failed field from leaving half a payload in the
	// archive.
	var staged bytes.Buffer
	res, err := d.c.compressBuffer(ctx, &staged, buf)
	if err != nil {
		return nil, err
	}
	e, err := d.w.Add(name, step, staged.Bytes())
	if err != nil {
		return nil, wrapStreamErr(err)
	}
	return &FieldResult{CompressResult: *res, Name: name, Step: step, Offset: e.Offset}, nil
}

// Close completes a writable dataset, writing the directory and footer. The
// destination writer is not closed — the Dataset does not own it. Closing a
// read-mode dataset is a no-op (the reader holds no resources of its own).
func (d *Dataset) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.w == nil {
		return nil
	}
	if d.closed {
		return fmt.Errorf("fraz: dataset already closed")
	}
	d.closed = true
	return wrapStreamErr(d.w.Close())
}

// Fields lists the dataset's directory: every (name, step) entry, sorted by
// name then step. In write mode it reflects what has been added so far.
func (d *Dataset) Fields() []FieldInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	var entries []archive.Entry
	switch {
	case d.r != nil:
		entries = d.r.Entries()
	case d.w != nil:
		entries = d.w.Entries()
	}
	out := make([]FieldInfo, len(entries))
	for i, e := range entries {
		out[i] = FieldInfo{Name: e.Name, Step: e.Step, Offset: e.Offset, Bytes: e.Length, CRC: e.CRC}
	}
	return out
}

// FieldNames lists the distinct field names in the dataset, sorted.
func (d *Dataset) FieldNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, f := range d.Fields() {
		if !seen[f.Name] {
			seen[f.Name] = true
			names = append(names, f.Name)
		}
	}
	return names
}

// Steps lists the time steps recorded for one field, ascending (Fields is
// sorted by name, then step); empty when the field is absent.
func (d *Dataset) Steps(name string) []int {
	var steps []int
	for _, f := range d.Fields() {
		if f.Name == name {
			steps = append(steps, f.Step)
		}
	}
	return steps
}

// OpenField decodes one field at step 0 from a read-mode dataset: its
// payload bytes are read, CRC-verified, and decompressed with whatever
// codec its own container header names — other fields' bytes are never
// touched. Missing fields fail with ErrFieldNotFound.
func (d *Dataset) OpenField(ctx context.Context, name string) (*DecompressResult, error) {
	return d.OpenFieldStep(ctx, name, 0)
}

// OpenFieldStep is OpenField at an explicit time step.
func (d *Dataset) OpenFieldStep(ctx context.Context, name string, step int) (*DecompressResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.r == nil {
		return nil, fmt.Errorf("fraz: dataset is write-only (open it with OpenDataset to read)")
	}
	cn, err := d.r.Open(name, step)
	if err != nil {
		return nil, wrapStreamErr(err)
	}
	return decompressContainer(ctx, cn, 0)
}
