package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fraz"
	"fraz/internal/container"
	"fraz/internal/grid"
)

// This file is the service's multi-field surface: POST /v1/datasets uploads
// a set of named fields (one multipart part each), tunes and seals every
// field into one .frazd dataset archive — racing the codec registry per
// field unless the request names a codec — and shelves the archive in the
// same content-addressed store single-field archives use. GET
// /v1/datasets/{id}/fields/{name} then decodes exactly one field out of the
// stored archive: the directory seek and single-payload read mean a request
// for one field of a large snapshot never decompresses its neighbours.

// datasetCodecLabel marks a stored archive as a dataset (the store is shared
// with single-field containers; the Codec header records the kind, not a
// codec, because each field carries its own codec record inside).
const datasetCodecLabel = "dataset"

// datasetCreate holds its worker slot while the parts arrive, each read and
// sealed in turn, so that a snapshot never sits in memory whole; the read
// deadline is what keeps a stalled upload from holding the slot for good.
func (s *Server) datasetCreate(rq *request) (*response, error) {
	// The dataset endpoint defaults to the per-field codec race; an explicit
	// X-Fraz-Codec pins every field to one codec instead.
	p, err := s.parseCompressParams(rq.Request, fraz.CodecAuto)
	if err != nil {
		return nil, err
	}
	mr, err := rq.MultipartReader()
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "datasets are uploaded as multipart/form-data, one part per field: %v", err)
	}
	if err := rq.work(); err != nil {
		return nil, err
	}
	var arc bytes.Buffer
	ds, err := fraz.NewDataset(&arc, append([]fraz.Option{fraz.Codec(p.codec)}, p.opts...)...)
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "%v", err)
	}

	type fieldReport struct {
		Name     string  `json:"name"`
		Codec    string  `json:"codec"`
		Bound    float64 `json:"bound"`
		Ratio    float64 `json:"ratio"`
		Bytes    int64   `json:"bytes"`
		Achieved float64 `json:"achieved,omitempty"`
		Raced    int     `json:"raced,omitempty"` // how many codecs competed; absent when one was pinned
	}
	var fields []fieldReport
	var rawBytes int64
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, errorf(http.StatusBadRequest, "reading multipart body: %w", err)
		}
		name := part.FormName()
		if name == "" {
			name = part.FileName()
		}
		body, err := p.readField(part, "field "+name)
		part.Close()
		if err != nil {
			return nil, err
		}

		start := time.Now()
		var res *fraz.FieldResult
		if p.dtype == container.Float64 {
			res, err = ds.AddField64(rq.ctx, name, grid.FromLE[float64](body), p.shape)
		} else {
			res, err = ds.AddField(rq.ctx, name, grid.FromLE[float32](body), p.shape)
		}
		if err != nil {
			// Naming the field lets a many-field upload fail diagnosably.
			return nil, fmt.Errorf("field %s: %w", name, err)
		}
		s.met.observeSeal(res.Codec, time.Since(start))
		s.met.bytesIn.Add(uint64(len(body)))
		rawBytes += int64(len(body))
		fr := fieldReport{
			Name:     name,
			Codec:    res.Codec,
			Bound:    res.ErrorBound,
			Ratio:    res.Ratio,
			Bytes:    res.BytesWritten,
			Achieved: res.AchievedValue,
		}
		if res.Selection != nil {
			fr.Raced = len(res.Selection.Raced())
		}
		fields = append(fields, fr)
	}
	if len(fields) == 0 {
		return nil, errorf(http.StatusBadRequest, "the multipart body carried no field parts")
	}
	if err := ds.Close(); err != nil {
		return nil, err
	}
	s.met.bytesSealed.Add(uint64(arc.Len()))

	id, ok := s.store.put(arc.Bytes(), describe(nil, "Codec", datasetCodecLabel, "DType", p.dtype.String(), "Shape", p.shape.String()))
	if !ok {
		return nil, errorf(http.StatusInsufficientStorage, "dataset archive exceeds the server's store budget")
	}
	return jsonResponse(http.StatusCreated, http.Header{"Location": {"/v1/datasets/" + id}}, map[string]any{
		"id":              id,
		"bytes":           arc.Len(),
		"fields":          fields,
		"aggregate_ratio": float64(rawBytes) / float64(arc.Len()),
	})
}

// isFieldDownload tells the two requests /v1/datasets/ serves apart: a field
// download decodes and is admitted work; the directory is a store read.
func isFieldDownload(r *http.Request) bool {
	return strings.Contains(strings.TrimPrefix(r.URL.Path, "/v1/datasets/"), "/")
}

// datasetGet serves GET /v1/datasets/{id} (the directory, as JSON) and
// GET /v1/datasets/{id}/fields/{name}[?step=n] (one lazily decoded field,
// raw little-endian).
func (s *Server) datasetGet(rq *request) (*response, error) {
	id, sub, _ := strings.Cut(strings.TrimPrefix(rq.URL.Path, "/v1/datasets/"), "/")
	if id == "" {
		return nil, errorf(http.StatusNotFound, "dataset ids look like /v1/datasets/<id>")
	}
	a, ok := s.store.get(id)
	if !ok || a.header.Get("X-Fraz-Codec") != datasetCodecLabel {
		return nil, errorf(http.StatusNotFound, "no stored dataset %q", id)
	}
	// The store is content-addressed and in-memory, so an archive that does
	// not open was corrupt at upload — a server bug, not a client's: the
	// error map's default, not the 400 ErrCorrupt would get.
	ds, err := fraz.OpenDataset(bytes.NewReader(a.data))
	if err != nil {
		return nil, errorf(http.StatusInternalServerError, "%v", err)
	}

	if !isFieldDownload(rq.Request) {
		type entry struct {
			Name  string `json:"name"`
			Step  int    `json:"step"`
			Bytes int64  `json:"bytes"`
		}
		var entries []entry
		for _, fi := range ds.Fields() {
			entries = append(entries, entry{Name: fi.Name, Step: fi.Step, Bytes: fi.Bytes})
		}
		return jsonResponse(http.StatusOK, nil, map[string]any{
			"id":     id,
			"bytes":  len(a.data),
			"dtype":  a.header.Get("X-Fraz-DType"),
			"shape":  a.header.Get("X-Fraz-Shape"),
			"fields": entries,
		})
	}

	name, found := strings.CutPrefix(sub, "fields/")
	if !found || name == "" || strings.Contains(name, "/") {
		return nil, errorf(http.StatusNotFound, "field downloads look like /v1/datasets/<id>/fields/<name>")
	}
	step := 0
	if v := rq.URL.Query().Get("step"); v != "" {
		step, err = strconv.Atoi(v)
		if err != nil || step < 0 {
			return nil, errorf(http.StatusBadRequest, "bad step %q", v)
		}
	}
	if err := rq.work(); err != nil {
		return nil, err
	}
	res, err := ds.OpenFieldStep(rq.ctx, name, step)
	if err != nil {
		return nil, err
	}
	return s.rawField(res, false, "Step", strconv.Itoa(step))
}
