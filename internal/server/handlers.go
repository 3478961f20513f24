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
	"fraz/internal/grid"
)

// Endpoint names used in metrics labels.
const (
	epCompress   = "compress"
	epDecompress = "decompress"
	epArchives   = "archives"
)

// header/query parameter names. Headers win over query parameters so curl
// one-liners can use either.
func param(r *http.Request, name string) string {
	if v := r.Header.Get("X-Fraz-" + name); v != "" {
		return v
	}
	return r.URL.Query().Get(strings.ToLower(name))
}

func tenantOf(r *http.Request) string {
	if t := param(r, "Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
	// ClosestRatio is set on 422 infeasible responses: the best ratio the
	// search observed, so the client can decide how to relax its request.
	ClosestRatio float64 `json:"closest_ratio,omitempty"`
}

func (s *Server) fail(w http.ResponseWriter, endpoint string, code int, body apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.cfg.Log.Printf("frazd: writing %d error body: %v", code, err)
	}
	s.met.observeRequest(endpoint, code)
}

// reject answers an admission refusal: 429 (saturation) or 503 (draining /
// deadline pressure), always with a Retry-After hint so well-behaved
// clients back off instead of hammering.
func (s *Server) reject(w http.ResponseWriter, endpoint string, code int, reason, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	s.met.observeRejection(reason)
	s.fail(w, endpoint, code, apiError{Error: msg})
}

// admit runs the shared admission path: drain check, tenant + queue seats.
// It returns a non-nil leave func on success; on refusal the response has
// been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string) func() {
	if s.draining.Load() {
		s.reject(w, endpoint, http.StatusServiceUnavailable, "draining", "server is draining; retry elsewhere")
		return nil
	}
	leave, err := s.adm.enter(tenantOf(r))
	switch {
	case errors.Is(err, errTenantSaturated):
		s.reject(w, endpoint, http.StatusTooManyRequests, "tenant",
			fmt.Sprintf("tenant %q has reached its concurrency limit (%d)", tenantOf(r), s.cfg.PerTenant))
		return nil
	case errors.Is(err, errQueueFull):
		s.reject(w, endpoint, http.StatusTooManyRequests, "queue", "admission queue is full")
		return nil
	}
	return leave
}

// compressParams is the tuning request distilled from headers/query.
type compressParams struct {
	shape     grid.Dims
	wide      bool // element width: false=float32, true=float64
	codec     string
	objective string
	target    float64
	tolerance float64
	tolSet    bool
	blocks    int
	store     bool
}

// parseShape reads "100x500x500" into a shape that passed grid's validation:
// 1-4 positive extents whose element count cannot wrap, so every size the
// handlers derive from it is a true size.
func parseShape(s string) (grid.Dims, error) {
	if s == "" {
		return nil, errors.New("missing shape (X-Fraz-Shape header or ?shape=, e.g. 100x500x500)")
	}
	parts := strings.Split(s, "x")
	extents := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad shape extent %q", p)
		}
		extents[i] = v
	}
	shape, err := grid.NewDims(extents...)
	if err != nil {
		return nil, fmt.Errorf("bad shape %q: %v", s, err)
	}
	return shape, nil
}

// fieldBytes returns the exact size in bytes of one raw field of the
// request's shape and dtype, and the element size it was computed with.
func (p compressParams) fieldBytes() (want int64, elemSize int) {
	elemSize = 4
	if p.wide {
		elemSize = 8
	}
	return int64(p.shape.Len()) * int64(elemSize), elemSize
}

func parseCompressParams(r *http.Request) (compressParams, error) {
	p := compressParams{codec: fraz.DefaultCodec, objective: "ratio", target: 10}
	var err error
	if p.shape, err = parseShape(param(r, "Shape")); err != nil {
		return p, err
	}
	switch dt := param(r, "DType"); dt {
	case "", "float32", "f32":
	case "float64", "f64":
		p.wide = true
	default:
		return p, fmt.Errorf("unknown dtype %q (want float32 or float64)", dt)
	}
	if c := param(r, "Codec"); c != "" {
		p.codec = c
	}
	if o := param(r, "Objective"); o != "" {
		p.objective = o
	}
	if t := param(r, "Target"); t != "" {
		if p.target, err = strconv.ParseFloat(t, 64); err != nil {
			return p, fmt.Errorf("bad target %q", t)
		}
	} else if p.objective != "ratio" {
		return p, fmt.Errorf("objective %q needs an explicit target (X-Fraz-Target)", p.objective)
	}
	if t := param(r, "Tolerance"); t != "" {
		if p.tolerance, err = strconv.ParseFloat(t, 64); err != nil {
			return p, fmt.Errorf("bad tolerance %q", t)
		}
		p.tolSet = true
	}
	if b := param(r, "Blocks"); b != "" {
		if p.blocks, err = strconv.Atoi(b); err != nil || p.blocks < 0 {
			return p, fmt.Errorf("bad blocks %q", b)
		}
	}
	p.store = boolParam(r, "Store")
	return p, nil
}

func boolParam(r *http.Request, name string) bool {
	switch strings.ToLower(param(r, name)) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// options maps the parsed request onto the public API's functional options.
func (p compressParams) options(s *Server) ([]fraz.Option, error) {
	var target fraz.Option
	switch p.objective {
	case "ratio":
		target = fraz.Ratio(p.target)
	case "psnr":
		target = fraz.TargetPSNR(p.target)
	case "ssim":
		target = fraz.TargetSSIM(p.target)
	case "max-error":
		target = fraz.TargetMaxError(p.target)
	default:
		return nil, fmt.Errorf("unknown objective %q (want ratio, psnr, ssim, or max-error)", p.objective)
	}
	opts := []fraz.Option{
		target,
		fraz.Blocks(p.blocks),
		fraz.Workers(s.cfg.SealWorkers),
		fraz.Seed(1), // deterministic service: same field + request → same archive
		fraz.SharedCache(s.cache),
	}
	if p.tolSet {
		opts = append(opts, fraz.Tolerance(p.tolerance))
	}
	return opts, nil
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, epCompress, http.StatusMethodNotAllowed, apiError{Error: "POST a raw field body"})
		return
	}
	p, err := parseCompressParams(r)
	if err != nil {
		s.fail(w, epCompress, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	opts, err := p.options(s)
	if err != nil {
		s.fail(w, epCompress, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	client, err := fraz.New(p.codec, opts...)
	if err != nil {
		s.fail(w, epCompress, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}

	leave := s.admit(w, r, epCompress)
	if leave == nil {
		return
	}
	defer leave()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	want, elemSize := p.fieldBytes()
	if want > s.cfg.MaxFieldBytes {
		s.fail(w, epCompress, http.StatusRequestEntityTooLarge,
			apiError{Error: fmt.Sprintf("field of %d bytes exceeds the %d-byte limit", want, s.cfg.MaxFieldBytes)})
		return
	}
	// The shape fixes the body's size, so it is read into one buffer of that
	// size plus a byte that must stay empty, not grown into by ReadAll.
	body := make([]byte, want+1)
	n, err := io.ReadFull(r.Body, body)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		s.fail(w, epCompress, http.StatusBadRequest, apiError{Error: fmt.Sprintf("reading body: %v", err)})
		return
	}
	body = body[:n]
	if int64(len(body)) != want {
		s.fail(w, epCompress, http.StatusBadRequest,
			apiError{Error: fmt.Sprintf("body is %d bytes; shape %v at %d bytes/value needs exactly %d", len(body), p.shape, elemSize, want)})
		return
	}

	release, err := s.adm.acquire(ctx)
	if err != nil {
		// The deadline (or the client hanging up) expired while queued.
		s.reject(w, epCompress, http.StatusServiceUnavailable, "queue-timeout", "timed out waiting for a worker slot")
		return
	}
	defer release()
	if s.sealHook != nil {
		s.sealHook()
	}

	var arc bytes.Buffer
	start := time.Now()
	var res *fraz.CompressResult
	if p.wide {
		res, err = client.Compress64(ctx, &arc, decodeRaw[float64](body), p.shape)
	} else {
		res, err = client.Compress(ctx, &arc, decodeRaw[float32](body), p.shape)
	}
	s.met.sealSeconds.get(p.codec).observe(time.Since(start).Seconds())
	if err != nil {
		s.compressError(w, err)
		return
	}
	s.met.bytesIn.add(uint64(want))
	s.met.bytesSealed.add(uint64(arc.Len()))

	h := w.Header()
	h.Set("X-Fraz-Codec", res.Codec)
	h.Set("X-Fraz-DType", dtypeName(p.wide))
	h.Set("X-Fraz-Shape", shapeString(p.shape))
	h.Set("X-Fraz-Bound", formatFloat(res.ErrorBound))
	h.Set("X-Fraz-Ratio", formatFloat(res.Ratio))
	h.Set("X-Fraz-Objective", res.Objective)
	h.Set("X-Fraz-Target", formatFloat(res.Target))
	h.Set("X-Fraz-Achieved", formatFloat(res.AchievedValue))
	h.Set("X-Fraz-Blocks", strconv.Itoa(res.Blocks))
	h.Set("X-Fraz-Evaluations", strconv.Itoa(res.Evaluations))
	h.Set("X-Fraz-Cache-Hits", strconv.Itoa(res.CacheHits))

	if p.store {
		id, ok := s.store.put(arc.Bytes(), archiveMeta{
			Codec:      res.Codec,
			DType:      dtypeName(p.wide),
			Shape:      shapeString(p.shape),
			ErrorBound: res.ErrorBound,
			Ratio:      res.Ratio,
			Blocks:     res.Blocks,
			Objective:  res.Objective,
			Target:     res.Target,
			Achieved:   res.AchievedValue,
		})
		if !ok {
			s.fail(w, epCompress, http.StatusInsufficientStorage,
				apiError{Error: "archive exceeds the server's store budget; request it inline instead"})
			return
		}
		h.Set("Location", "/v1/archives/"+id)
		h.Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		if err := json.NewEncoder(w).Encode(map[string]any{
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
		}); err != nil {
			s.cfg.Log.Printf("frazd: writing store response: %v", err)
		}
		s.met.observeRequest(epCompress, http.StatusCreated)
		return
	}

	h.Set("Content-Type", "application/x-fraz")
	h.Set("Content-Length", strconv.Itoa(arc.Len()))
	if _, err := w.Write(arc.Bytes()); err != nil {
		// The archive was built; only the client's connection died. Nothing
		// can be re-sent on this response, so log and account it.
		s.cfg.Log.Printf("frazd: streaming archive: %v", err)
	}
	s.met.observeRequest(epCompress, http.StatusOK)
}

// compressError maps a failed seal onto the API's status codes.
func (s *Server) compressError(w http.ResponseWriter, err error) {
	var inf *fraz.InfeasibleError
	switch {
	case errors.As(err, &inf):
		s.fail(w, epCompress, http.StatusUnprocessableEntity,
			apiError{Error: err.Error(), ClosestRatio: inf.ClosestRatio})
	case errors.Is(err, context.DeadlineExceeded):
		s.reject(w, epCompress, http.StatusServiceUnavailable, "timeout", "request deadline exceeded mid-tune")
	case errors.Is(err, context.Canceled):
		// The client went away; the response writer is dead but account the
		// outcome anyway.
		s.met.observeRequest(epCompress, 499)
	default:
		s.fail(w, epCompress, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
}

func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, epDecompress, http.StatusMethodNotAllowed, apiError{Error: "POST a .fraz archive body (or ?id=<stored archive>)"})
		return
	}
	leave := s.admit(w, r, epDecompress)
	if leave == nil {
		return
	}
	defer leave()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	var archive []byte
	if id := r.URL.Query().Get("id"); id != "" {
		a, ok := s.store.get(id)
		if !ok {
			s.fail(w, epDecompress, http.StatusNotFound, apiError{Error: fmt.Sprintf("no stored archive %q", id)})
			return
		}
		archive = a.data
	} else {
		var err error
		archive, err = io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxArchiveBytes+1))
		if err != nil {
			s.fail(w, epDecompress, http.StatusBadRequest, apiError{Error: fmt.Sprintf("reading body: %v", err)})
			return
		}
		if int64(len(archive)) > s.cfg.MaxArchiveBytes {
			s.fail(w, epDecompress, http.StatusRequestEntityTooLarge,
				apiError{Error: fmt.Sprintf("archive exceeds the %d-byte limit", s.cfg.MaxArchiveBytes)})
			return
		}
	}

	release, err := s.adm.acquire(ctx)
	if err != nil {
		s.reject(w, epDecompress, http.StatusServiceUnavailable, "queue-timeout", "timed out waiting for a worker slot")
		return
	}
	defer release()

	res, err := fraz.DecompressFull(ctx, bytes.NewReader(archive), fraz.Workers(s.cfg.SealWorkers))
	if err != nil {
		switch {
		case errors.Is(err, fraz.ErrCorrupt), errors.Is(err, fraz.ErrUnknownCodec):
			s.fail(w, epDecompress, http.StatusBadRequest, apiError{Error: err.Error()})
		case errors.Is(err, context.DeadlineExceeded):
			s.reject(w, epDecompress, http.StatusServiceUnavailable, "timeout", "request deadline exceeded mid-decode")
		default:
			s.fail(w, epDecompress, http.StatusInternalServerError, apiError{Error: err.Error()})
		}
		return
	}

	raw := encodeRaw(res.Data, res.Data64)

	h := w.Header()
	h.Set("X-Fraz-Codec", res.Codec)
	h.Set("X-Fraz-DType", res.DType)
	h.Set("X-Fraz-Shape", shapeString(res.Shape))
	h.Set("X-Fraz-Bound", formatFloat(res.ErrorBound))
	h.Set("X-Fraz-Ratio", formatFloat(res.Ratio))
	h.Set("X-Fraz-Version", strconv.Itoa(res.Version))
	h.Set("X-Fraz-Blocks", strconv.Itoa(res.Blocks))
	if o := res.Objective; o != nil {
		h.Set("X-Fraz-Objective", o.Name)
		h.Set("X-Fraz-Target", formatFloat(o.Target))
		h.Set("X-Fraz-Tolerance", formatFloat(o.Tolerance))
		h.Set("X-Fraz-Achieved", formatFloat(o.Achieved))
	}

	if boolParam(r, "Verify") {
		checks, err := verifyRecord(res, raw)
		if err != nil {
			s.fail(w, epDecompress, http.StatusUnprocessableEntity, apiError{Error: err.Error()})
			return
		}
		h.Set("X-Fraz-Verified", strings.Join(checks, ","))
	}

	s.met.bytesOpened.add(uint64(len(raw)))
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(raw)))
	if _, err := w.Write(raw); err != nil {
		s.cfg.Log.Printf("frazd: streaming field: %v", err)
	}
	s.met.observeRequest(epDecompress, http.StatusOK)
}

// verifyRecord re-checks every promise the archive itself can witness: the
// recorded ratio against the actual payload and field sizes (1% band, the
// same check `fraz -decompress -verify` applies), and — for
// quality-targeted archives — that the recorded achieved value sits inside
// the recorded acceptance band. Quality promises measured against the
// original field need that field; holders verify those client-side with
// `fraz -decompress -verify -in ...`.
func verifyRecord(res *fraz.DecompressResult, raw []byte) ([]string, error) {
	checks := []string{"crc"} // every block CRC was checked during decode
	if res.CompressedBytes > 0 && res.Ratio > 0 {
		actual := float64(len(raw)) / float64(res.CompressedBytes)
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

func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/archives/")
	if id == "" || strings.Contains(id, "/") {
		s.fail(w, epArchives, http.StatusNotFound, apiError{Error: "archive ids look like /v1/archives/<id>"})
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		a, ok := s.store.get(id)
		if !ok {
			s.fail(w, epArchives, http.StatusNotFound, apiError{Error: fmt.Sprintf("no stored archive %q", id)})
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/x-fraz")
		h.Set("Content-Length", strconv.Itoa(len(a.data)))
		h.Set("X-Fraz-Codec", a.meta.Codec)
		h.Set("X-Fraz-DType", a.meta.DType)
		h.Set("X-Fraz-Shape", a.meta.Shape)
		h.Set("X-Fraz-Bound", formatFloat(a.meta.ErrorBound))
		h.Set("X-Fraz-Ratio", formatFloat(a.meta.Ratio))
		h.Set("X-Fraz-Blocks", strconv.Itoa(a.meta.Blocks))
		if r.Method == http.MethodHead {
			s.met.observeRequest(epArchives, http.StatusOK)
			return
		}
		if _, err := w.Write(a.data); err != nil {
			s.cfg.Log.Printf("frazd: streaming stored archive: %v", err)
		}
		s.met.observeRequest(epArchives, http.StatusOK)
	case http.MethodDelete:
		if !s.store.remove(id) {
			s.fail(w, epArchives, http.StatusNotFound, apiError{Error: fmt.Sprintf("no stored archive %q", id)})
			return
		}
		w.WriteHeader(http.StatusNoContent)
		s.met.observeRequest(epArchives, http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, HEAD, DELETE")
		s.fail(w, epArchives, http.StatusMethodNotAllowed, apiError{Error: "GET, HEAD, or DELETE"})
	}
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
	s.met.writeTo(w, s.gauges())
}

func dtypeName(wide bool) string {
	if wide {
		return "float64"
	}
	return "float32"
}

func shapeString(shape []int) string {
	parts := make([]string, len(shape))
	for i, e := range shape {
		parts[i] = strconv.Itoa(e)
	}
	return strings.Join(parts, "x")
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
