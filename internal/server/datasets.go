package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fraz"
)

// This file is the service's multi-field surface: POST /v1/datasets uploads
// a set of named fields (one multipart part each), tunes and seals every
// field into one .frazd dataset archive — racing the codec registry per
// field unless the request names a codec — and shelves the archive in the
// same content-addressed store single-field archives use. GET
// /v1/datasets/{id}/fields/{name} then decodes exactly one field out of the
// stored archive: the directory seek and single-payload read mean a request
// for one field of a large snapshot never decompresses its neighbours.

const epDatasets = "datasets"

// datasetCodecLabel marks a stored archive as a dataset (the store is shared
// with single-field containers; the Codec slot records the kind, not a
// codec, because each field carries its own codec record inside).
const datasetCodecLabel = "dataset"

func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, epDatasets, http.StatusMethodNotAllowed, apiError{Error: "POST a multipart body, one part per field"})
		return
	}
	p, err := parseCompressParams(r)
	if err != nil {
		s.fail(w, epDatasets, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	opts, err := p.options(s)
	if err != nil {
		s.fail(w, epDatasets, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	// The dataset endpoint defaults to the per-field codec race; an explicit
	// X-Fraz-Codec pins every field to one codec instead.
	codec := fraz.CodecAuto
	if c := param(r, "Codec"); c != "" {
		codec = c
	}

	leave := s.admit(w, r, epDatasets)
	if leave == nil {
		return
	}
	defer leave()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	mr, err := r.MultipartReader()
	if err != nil {
		s.fail(w, epDatasets, http.StatusBadRequest,
			apiError{Error: fmt.Sprintf("datasets are uploaded as multipart/form-data, one part per field: %v", err)})
		return
	}

	want, elemSize := p.fieldBytes()
	if want > s.cfg.MaxFieldBytes {
		s.fail(w, epDatasets, http.StatusRequestEntityTooLarge,
			apiError{Error: fmt.Sprintf("each field of %d bytes exceeds the %d-byte limit", want, s.cfg.MaxFieldBytes)})
		return
	}

	release, err := s.adm.acquire(ctx)
	if err != nil {
		s.reject(w, epDatasets, http.StatusServiceUnavailable, "queue-timeout", "timed out waiting for a worker slot")
		return
	}
	defer release()
	if s.sealHook != nil {
		s.sealHook()
	}

	var arc bytes.Buffer
	ds, err := fraz.NewDataset(&arc, append([]fraz.Option{fraz.Codec(codec)}, opts...)...)
	if err != nil {
		s.fail(w, epDatasets, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}

	type fieldReport struct {
		Name     string  `json:"name"`
		Codec    string  `json:"codec"`
		Bound    float64 `json:"bound"`
		Ratio    float64 `json:"ratio"`
		Bytes    int64   `json:"bytes"`
		Achieved float64 `json:"achieved,omitempty"`
		Raced    int     `json:"raced,omitempty"`
	}
	var fields []fieldReport
	var rawBytes int64
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.fail(w, epDatasets, http.StatusBadRequest, apiError{Error: fmt.Sprintf("reading multipart body: %v", err)})
			return
		}
		name := part.FormName()
		if name == "" {
			name = part.FileName()
		}
		body, err := io.ReadAll(io.LimitReader(part, want+1))
		part.Close()
		if err != nil {
			s.fail(w, epDatasets, http.StatusBadRequest, apiError{Error: fmt.Sprintf("field %s: reading part: %v", name, err)})
			return
		}
		if int64(len(body)) != want {
			s.fail(w, epDatasets, http.StatusBadRequest,
				apiError{Error: fmt.Sprintf("field %s is %d bytes; shape %v at %d bytes/value needs exactly %d", name, len(body), p.shape, elemSize, want)})
			return
		}

		start := time.Now()
		var res *fraz.FieldResult
		if p.wide {
			res, err = ds.AddField64(ctx, name, decodeRaw[float64](body), p.shape)
		} else {
			res, err = ds.AddField(ctx, name, decodeRaw[float32](body), p.shape)
		}
		if err != nil {
			s.datasetFieldError(w, name, err)
			return
		}
		s.met.sealSeconds.get(res.Codec).observe(time.Since(start).Seconds())
		s.met.bytesIn.add(uint64(want))
		rawBytes += want
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
		s.fail(w, epDatasets, http.StatusBadRequest, apiError{Error: "the multipart body carried no field parts"})
		return
	}
	if err := ds.Close(); err != nil {
		s.fail(w, epDatasets, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	s.met.bytesSealed.add(uint64(arc.Len()))

	id, ok := s.store.put(arc.Bytes(), archiveMeta{
		Codec: datasetCodecLabel,
		DType: dtypeName(p.wide),
		Shape: shapeString(p.shape),
	})
	if !ok {
		s.fail(w, epDatasets, http.StatusInsufficientStorage,
			apiError{Error: "dataset archive exceeds the server's store budget"})
		return
	}

	h := w.Header()
	h.Set("Location", "/v1/datasets/"+id)
	h.Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	if err := json.NewEncoder(w).Encode(map[string]any{
		"id":              id,
		"bytes":           arc.Len(),
		"fields":          fields,
		"aggregate_ratio": float64(rawBytes) / float64(arc.Len()),
	}); err != nil {
		s.cfg.Log.Printf("frazd: writing dataset response: %v", err)
	}
	s.met.observeRequest(epDatasets, http.StatusCreated)
}

// datasetFieldError maps a failed per-field seal onto the API's status
// codes, naming the field so a many-field upload fails diagnosably.
func (s *Server) datasetFieldError(w http.ResponseWriter, name string, err error) {
	var inf *fraz.InfeasibleError
	switch {
	case errors.As(err, &inf):
		s.fail(w, epDatasets, http.StatusUnprocessableEntity,
			apiError{Error: fmt.Sprintf("field %s: %v", name, err), ClosestRatio: inf.ClosestRatio})
	case errors.Is(err, fraz.ErrDuplicateField):
		s.fail(w, epDatasets, http.StatusBadRequest, apiError{Error: fmt.Sprintf("field %s: %v", name, err)})
	case errors.Is(err, context.DeadlineExceeded):
		s.reject(w, epDatasets, http.StatusServiceUnavailable, "timeout", "request deadline exceeded mid-tune")
	case errors.Is(err, context.Canceled):
		s.met.observeRequest(epDatasets, 499)
	default:
		s.fail(w, epDatasets, http.StatusInternalServerError, apiError{Error: fmt.Sprintf("field %s: %v", name, err)})
	}
}

// handleDatasetGet serves GET /v1/datasets/{id} (the directory, as JSON) and
// GET /v1/datasets/{id}/fields/{name}[?step=n] (one lazily decoded field,
// raw little-endian).
func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		s.fail(w, epDatasets, http.StatusMethodNotAllowed, apiError{Error: "GET /v1/datasets/{id} or /v1/datasets/{id}/fields/{name}"})
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/datasets/")
	id, sub, hasSub := strings.Cut(rest, "/")
	if id == "" {
		s.fail(w, epDatasets, http.StatusNotFound, apiError{Error: "dataset ids look like /v1/datasets/<id>"})
		return
	}
	a, ok := s.store.get(id)
	if !ok || a.meta.Codec != datasetCodecLabel {
		s.fail(w, epDatasets, http.StatusNotFound, apiError{Error: fmt.Sprintf("no stored dataset %q", id)})
		return
	}
	ds, err := fraz.OpenDataset(bytes.NewReader(a.data))
	if err != nil {
		// The store is content-addressed and in-memory, so this means the
		// archive was corrupt at upload — a server bug, not a client one.
		s.fail(w, epDatasets, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}

	if !hasSub {
		type entry struct {
			Name  string `json:"name"`
			Step  int    `json:"step"`
			Bytes int64  `json:"bytes"`
		}
		var entries []entry
		for _, fi := range ds.Fields() {
			entries = append(entries, entry{Name: fi.Name, Step: fi.Step, Bytes: fi.Bytes})
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(map[string]any{
			"id":     id,
			"bytes":  len(a.data),
			"dtype":  a.meta.DType,
			"shape":  a.meta.Shape,
			"fields": entries,
		}); err != nil {
			s.cfg.Log.Printf("frazd: writing dataset directory: %v", err)
		}
		s.met.observeRequest(epDatasets, http.StatusOK)
		return
	}

	name, found := strings.CutPrefix(sub, "fields/")
	if !found || name == "" || strings.Contains(name, "/") {
		s.fail(w, epDatasets, http.StatusNotFound, apiError{Error: "field downloads look like /v1/datasets/<id>/fields/<name>"})
		return
	}
	step := 0
	if v := r.URL.Query().Get("step"); v != "" {
		step, err = strconv.Atoi(v)
		if err != nil || step < 0 {
			s.fail(w, epDatasets, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad step %q", v)})
			return
		}
	}

	leave := s.admit(w, r, epDatasets)
	if leave == nil {
		return
	}
	defer leave()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	release, err := s.adm.acquire(ctx)
	if err != nil {
		s.reject(w, epDatasets, http.StatusServiceUnavailable, "queue-timeout", "timed out waiting for a worker slot")
		return
	}
	defer release()

	res, err := ds.OpenFieldStep(ctx, name, step)
	if err != nil {
		switch {
		case errors.Is(err, fraz.ErrFieldNotFound):
			s.fail(w, epDatasets, http.StatusNotFound, apiError{Error: err.Error()})
		case errors.Is(err, fraz.ErrCorrupt), errors.Is(err, fraz.ErrUnknownCodec):
			s.fail(w, epDatasets, http.StatusBadRequest, apiError{Error: err.Error()})
		case errors.Is(err, context.DeadlineExceeded):
			s.reject(w, epDatasets, http.StatusServiceUnavailable, "timeout", "request deadline exceeded mid-decode")
		default:
			s.fail(w, epDatasets, http.StatusInternalServerError, apiError{Error: err.Error()})
		}
		return
	}

	raw := encodeRaw(res.Data, res.Data64)
	s.met.bytesOpened.add(uint64(len(raw)))

	h := w.Header()
	h.Set("X-Fraz-Codec", res.Codec)
	h.Set("X-Fraz-DType", res.DType)
	h.Set("X-Fraz-Shape", shapeString(res.Shape))
	h.Set("X-Fraz-Bound", formatFloat(res.ErrorBound))
	h.Set("X-Fraz-Ratio", formatFloat(res.Ratio))
	h.Set("X-Fraz-Step", strconv.Itoa(step))
	if o := res.Objective; o != nil {
		h.Set("X-Fraz-Objective", o.Name)
		h.Set("X-Fraz-Target", formatFloat(o.Target))
		h.Set("X-Fraz-Achieved", formatFloat(o.Achieved))
	}
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(raw)))
	if r.Method == http.MethodHead {
		s.met.observeRequest(epDatasets, http.StatusOK)
		return
	}
	if _, err := w.Write(raw); err != nil {
		s.cfg.Log.Printf("frazd: streaming field: %v", err)
	}
	s.met.observeRequest(epDatasets, http.StatusOK)
}
