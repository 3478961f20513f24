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

// header/query parameter names. Headers win over query parameters so curl
// one-liners can use either.
func param(r *http.Request, name string) string {
	if v := r.Header.Get("X-Fraz-" + name); v != "" {
		return v
	}
	return r.URL.Query().Get(strings.ToLower(name))
}

func boolParam(r *http.Request, name string) bool {
	switch strings.ToLower(param(r, name)) {
	case "1", "true", "yes":
		return true
	}
	return false
}

func tenantOf(r *http.Request) string {
	if t := param(r, "Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// compressParams is the tuning request distilled from headers/query: the
// field's geometry, and the public API's options for everything else.
type compressParams struct {
	shape grid.Dims
	dtype container.DType
	codec string
	opts  []fraz.Option
	store bool
}

// parseCompressParams reads the request's tuning parameters; codec is the
// endpoint's default for a request that names none. Every refusal is the
// client's (400), but for a field the server is configured not to take (413).
func (s *Server) parseCompressParams(r *http.Request, codec string) (compressParams, error) {
	p := compressParams{codec: codec, store: boolParam(r, "Store")}
	bad := func(format string, args ...any) (compressParams, error) {
		return p, errorf(http.StatusBadRequest, format, args...)
	}
	var err error
	if p.shape, err = grid.ParseDims(param(r, "Shape")); err != nil {
		return bad("X-Fraz-Shape header or ?shape=: %v", err)
	}
	if p.dtype, err = container.ParseDType(param(r, "DType")); err != nil {
		return bad("%v", err)
	}
	if want := p.fieldBytes(); want > s.cfg.MaxFieldBytes {
		return p, errorf(http.StatusRequestEntityTooLarge, "a field of %d bytes exceeds the %d-byte limit", want, s.cfg.MaxFieldBytes)
	}
	if c := param(r, "Codec"); c != "" {
		p.codec = c
	}
	objective, target := "ratio", 10.0
	if o := param(r, "Objective"); o != "" {
		objective = o
	}
	if t := param(r, "Target"); t != "" {
		if target, err = strconv.ParseFloat(t, 64); err != nil {
			return bad("bad target %q", t)
		}
	} else if objective != "ratio" {
		return bad("objective %q needs an explicit target (X-Fraz-Target)", objective)
	}
	obj, err := fraz.ObjectiveByName(objective, target)
	if err != nil {
		return bad("%v", err)
	}
	blocks := 0
	if b := param(r, "Blocks"); b != "" {
		if blocks, err = strconv.Atoi(b); err != nil || blocks < 0 {
			return bad("bad blocks %q", b)
		}
	}
	p.opts = []fraz.Option{
		fraz.Target(obj),
		fraz.Blocks(blocks),
		fraz.Workers(s.cfg.SealWorkers),
		fraz.Seed(1), // deterministic service: same field + request → same archive
		fraz.SharedCache(s.cache),
	}
	if t := param(r, "Tolerance"); t != "" {
		tolerance, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return bad("bad tolerance %q", t)
		}
		p.opts = append(p.opts, fraz.Tolerance(tolerance))
	}
	return p, nil
}

// fieldBytes is the exact size of one raw field of the request's shape and
// dtype; the shape passed grid's validation, so the product cannot wrap.
func (p compressParams) fieldBytes() int64 {
	return int64(p.shape.Len()) * int64(p.dtype.Size())
}

// readField reads one raw field — a request body, one part of a multipart
// one — that must be exactly as long as the shape says. The shape fixes the
// size, so the bytes are read into one buffer of that size plus a byte that
// must stay empty, not grown into by ReadAll.
func (p compressParams) readField(r io.Reader, what string) ([]byte, error) {
	want := p.fieldBytes()
	body := make([]byte, want+1)
	n, err := io.ReadFull(r, body)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, errorf(http.StatusBadRequest, "reading %s: %w", what, err)
	}
	if int64(n) != want {
		return nil, errorf(http.StatusBadRequest, "%s is %d bytes; shape %v at %d bytes/value needs exactly %d",
			what, n, p.shape, p.dtype.Size(), want)
	}
	return body[:n], nil
}

// describe is the one writer of X-Fraz-* response headers: what a seal
// (*fraz.CompressResult) or a decoded container (*fraz.DecompressResult)
// says about an archive, then the extra name, value pairs only the caller
// knows — a seal does not carry its field's dtype and shape, a container
// not the step it was filed under.
func describe(res any, extra ...string) http.Header {
	h := http.Header{}
	set := func(name string, value any) { h.Set("X-Fraz-"+name, fmt.Sprint(value)) }
	switch res := res.(type) {
	case *fraz.CompressResult:
		set("Codec", res.Codec)
		set("Bound", res.ErrorBound)
		set("Ratio", res.Ratio)
		set("Blocks", res.Blocks)
		set("Objective", res.Objective)
		set("Target", res.Target)
		set("Achieved", res.AchievedValue)
		set("Evaluations", res.Evaluations)
		set("Cache-Hits", res.CacheHits)
	case *fraz.DecompressResult:
		set("Codec", res.Codec)
		set("DType", res.DType)
		set("Shape", grid.Dims(res.Shape))
		set("Bound", res.ErrorBound)
		set("Ratio", res.Ratio)
		set("Blocks", res.Blocks)
		set("Version", res.Version)
		if o := res.Objective; o != nil {
			set("Objective", o.Name)
			set("Target", o.Target)
			set("Tolerance", o.Tolerance)
			set("Achieved", o.Achieved)
		}
	}
	for i := 0; i+1 < len(extra); i += 2 {
		set(extra[i], extra[i+1])
	}
	return h
}

func (s *Server) compress(rq *request) (*response, error) {
	p, err := s.parseCompressParams(rq.Request, fraz.DefaultCodec)
	if err != nil {
		return nil, err
	}
	client, err := fraz.New(p.codec, p.opts...)
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "%v", err)
	}
	body, err := p.readField(rq.Body, "body")
	if err != nil {
		return nil, err
	}
	if err := rq.work(); err != nil {
		return nil, err
	}

	var arc bytes.Buffer
	start := time.Now()
	var res *fraz.CompressResult
	if p.dtype == container.Float64 {
		res, err = client.Compress64(rq.ctx, &arc, grid.FromLE[float64](body), p.shape)
	} else {
		res, err = client.Compress(rq.ctx, &arc, grid.FromLE[float32](body), p.shape)
	}
	s.met.observeSeal(p.codec, time.Since(start))
	if err != nil {
		return nil, err
	}
	s.met.bytesIn.Add(uint64(len(body)))
	s.met.bytesSealed.Add(uint64(arc.Len()))

	h := describe(res, "DType", p.dtype.String(), "Shape", p.shape.String())
	if !p.store {
		h.Set("Content-Type", "application/x-fraz")
		return &response{http.StatusOK, h, arc.Bytes()}, nil
	}
	id, ok := s.store.put(arc.Bytes(), h.Clone())
	if !ok {
		return nil, errorf(http.StatusInsufficientStorage, "archive exceeds the server's store budget; request it inline instead")
	}
	h.Set("Location", "/v1/archives/"+id)
	return jsonResponse(http.StatusCreated, h, map[string]any{
		"id":          id,
		"bytes":       arc.Len(),
		"codec":       res.Codec,
		"ratio":       res.Ratio,
		"bound":       res.ErrorBound,
		"objective":   res.Objective,
		"target":      res.Target,
		"achieved":    res.AchievedValue,
		"blocks":      res.Blocks,
		"evaluations": res.Evaluations,
		"cache_hits":  res.CacheHits,
	})
}

func (s *Server) decompress(rq *request) (*response, error) {
	var archive []byte
	if id := rq.URL.Query().Get("id"); id != "" {
		a, ok := s.store.get(id)
		if !ok {
			return nil, errorf(http.StatusNotFound, "no stored archive %q", id)
		}
		archive = a.data
	} else {
		var err error
		archive, err = io.ReadAll(io.LimitReader(rq.Body, s.cfg.MaxArchiveBytes+1))
		if err != nil {
			return nil, errorf(http.StatusBadRequest, "reading body: %w", err)
		}
		if int64(len(archive)) > s.cfg.MaxArchiveBytes {
			return nil, errorf(http.StatusRequestEntityTooLarge, "archive exceeds the %d-byte limit", s.cfg.MaxArchiveBytes)
		}
	}
	if err := rq.work(); err != nil {
		return nil, err
	}
	res, err := fraz.DecompressFull(rq.ctx, bytes.NewReader(archive), fraz.Workers(s.cfg.SealWorkers))
	if err != nil {
		return nil, err
	}
	return s.rawField(res, boolParam(rq.Request, "Verify"))
}

// rawField answers a decoded field as raw little-endian bytes under the
// headers that describe it, after verifying the archive's record if asked.
func (s *Server) rawField(res *fraz.DecompressResult, verify bool, extra ...string) (*response, error) {
	raw := encodeRaw(res.Data, res.Data64)
	if verify {
		checks, err := verifyRecord(res, len(raw))
		if err != nil {
			return nil, errorf(http.StatusUnprocessableEntity, "%v", err)
		}
		extra = append(extra, "Verified", strings.Join(checks, ","))
	}
	s.met.bytesOpened.Add(uint64(len(raw)))
	h := describe(res, extra...)
	h.Set("Content-Type", "application/octet-stream")
	return &response{http.StatusOK, h, raw}, nil
}

// encodeRaw is the response body for a decoded field, whichever of the two
// views the result carries. Raw fields are little-endian IEEE-754 on the
// wire, up (grid.FromLE) and down — the layout SDRBench archives, the
// datagen tool and the fraz CLI's -in/-out files all share — whatever the
// host's byte order.
func encodeRaw(f32 []float32, f64 []float64) []byte {
	if f64 != nil {
		return grid.AppendLE(nil, f64)
	}
	return grid.AppendLE(nil, f32)
}

// verifyRecord re-checks every promise the archive itself can witness: the
// recorded ratio against the actual payload and field sizes (1% band, the
// same check `fraz -decompress -verify` applies), and — for
// quality-targeted archives — that the recorded achieved value sits inside
// the recorded acceptance band. Quality promises measured against the
// original field need that field; holders verify those client-side with
// `fraz -decompress -verify -in ...`.
func verifyRecord(res *fraz.DecompressResult, rawBytes int) ([]string, error) {
	checks := []string{"crc"} // every block CRC was checked during decode
	if res.CompressedBytes > 0 && res.Ratio > 0 {
		actual := float64(rawBytes) / float64(res.CompressedBytes)
		if actual/res.Ratio < 0.99 || actual/res.Ratio > 1.01 {
			return nil, fmt.Errorf("verify failed: recorded ratio %.4f, recomputed %.4f from sizes", res.Ratio, actual)
		}
		checks = append(checks, "ratio")
	}
	if o := res.Objective; o != nil {
		if !o.InBand(o.Achieved) {
			return nil, fmt.Errorf("verify failed: recorded %s %.6g outside its own recorded band %g ± %g",
				o.Name, o.Achieved, o.Target, o.Tolerance)
		}
		checks = append(checks, "objective-record")
	}
	return checks, nil
}

// archive serves a stored archive back, under the headers it was first
// answered with, or deletes it.
func (s *Server) archive(rq *request) (*response, error) {
	id := strings.TrimPrefix(rq.URL.Path, "/v1/archives/")
	if id == "" || strings.Contains(id, "/") {
		return nil, errorf(http.StatusNotFound, "archive ids look like /v1/archives/<id>")
	}
	missing := errorf(http.StatusNotFound, "no stored archive %q", id)
	if rq.Method == http.MethodDelete {
		if !s.store.remove(id) {
			return nil, missing
		}
		return &response{status: http.StatusNoContent}, nil
	}
	a, ok := s.store.get(id)
	if !ok {
		return nil, missing
	}
	h := a.header.Clone()
	h.Set("Content-Type", "application/x-fraz")
	return &response{http.StatusOK, h, a.data}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, s.metrics())
}
