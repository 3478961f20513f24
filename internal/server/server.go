package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"maps"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fraz"
)

// Config sizes the service. The zero value of every field selects a
// production-shaped default, so server.New(server.Config{}) is a working
// server tuned to the machine it runs on.
type Config struct {
	// Concurrency is the worker-pool size: how many requests may tune, seal,
	// or open at once. Default GOMAXPROCS — the pool exists to keep the
	// machine busy, not oversubscribed.
	Concurrency int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// slot beyond the pool itself. Requests past the bound are rejected with
	// 429 immediately. Default 2×Concurrency.
	QueueDepth int
	// PerTenant bounds one tenant's requests in the system (queued +
	// running); the next concurrent request from that tenant gets 429 +
	// Retry-After. Tenants are named by the X-Fraz-Tenant header (missing =
	// "anonymous"). Default Concurrency — one tenant may fill the pool but
	// never the queue on top of it.
	PerTenant int
	// SealWorkers is the intra-request parallelism handed to the fraz
	// Client (block compressions per seal). Default 1: under concurrent
	// load, cross-request parallelism from the pool already saturates the
	// machine, and unshared seals keep per-request latency predictable.
	SealWorkers int
	// CacheEntries bounds the server-wide evaluation cache shared by every
	// request (<=0 = the fraz default, 65536 entries).
	CacheEntries int
	// MaxFieldBytes caps an uploaded raw field; bigger requests get 413.
	// Default 1 GiB.
	MaxFieldBytes int64
	// MaxArchiveBytes caps an uploaded .fraz archive on the decompress
	// path. Default MaxFieldBytes (an archive bigger than any admissible
	// field is nonsense).
	MaxArchiveBytes int64
	// StoreMaxBytes and StoreMaxEntries bound the server-side archive store
	// (?store=1). Defaults: 256 MiB, 1024 archives.
	StoreMaxBytes   int64
	StoreMaxEntries int
	// RequestTimeout caps one request end to end, queueing included; the
	// deadline cancels an in-flight tune through its context. Default 120s.
	RequestTimeout time.Duration
	// RetryAfter is the hint sent with 429/503 rejections. Default 1s.
	RetryAfter time.Duration
	// Log receives one line per failed request; nil = the stdlib default
	// logger.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Concurrency
	}
	if c.PerTenant <= 0 {
		c.PerTenant = c.Concurrency
	}
	if c.SealWorkers <= 0 {
		c.SealWorkers = 1
	}
	if c.MaxFieldBytes <= 0 {
		c.MaxFieldBytes = 1 << 30
	}
	if c.MaxArchiveBytes <= 0 {
		c.MaxArchiveBytes = c.MaxFieldBytes
	}
	if c.StoreMaxBytes <= 0 {
		c.StoreMaxBytes = 256 << 20
	}
	if c.StoreMaxEntries <= 0 {
		c.StoreMaxEntries = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// Server is the frazd service: an http.Handler plus the shared state behind
// it — worker pool, admission gate, server-wide evaluation cache, archive
// store, and metrics. Build one with New, mount Handler, and call
// BeginDrain before shutting the http.Server down.
type Server struct {
	cfg      Config
	cache    *fraz.EvalCache
	adm      *admission
	store    *archiveStore
	met      serverMetrics
	draining atomic.Bool

	// sealHook, when non-nil, runs inside the worker slot before the work
	// starts. Tests use it to hold requests at a known point.
	sealHook func()
}

// New builds a Server from the config (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:   cfg,
		cache: fraz.NewEvalCache(cfg.CacheEntries),
		adm:   newAdmission(cfg.Concurrency, cfg.QueueDepth, cfg.PerTenant),
		store: newArchiveStore(cfg.StoreMaxBytes, cfg.StoreMaxEntries),
	}
}

// route is one row of the route table: everything the request path decides
// about an endpoint before the endpoint's own code runs.
type route struct {
	pattern  string   // where the mux mounts it
	endpoint string   // the endpoint label of frazd_requests_total
	methods  []string // the methods served; any other is 405 with Allow
	// admitted reports whether a request is tune, seal or open work: such a
	// request passes the drain check and takes a tenant seat and a queue
	// seat before its handler runs. nil: the route only reads or edits the
	// store and is never refused for load.
	admitted func(*http.Request) bool
	handle   func(*Server, *request) (*response, error)
}

func always(*http.Request) bool { return true }

var routes = []route{
	{"/v1/compress", "compress", []string{http.MethodPost}, always, (*Server).compress},
	{"/v1/decompress", "decompress", []string{http.MethodPost}, always, (*Server).decompress},
	{"/v1/archives/", "archives", []string{http.MethodGet, http.MethodHead, http.MethodDelete}, nil, (*Server).archive},
	{"/v1/datasets", "datasets", []string{http.MethodPost}, always, (*Server).datasetCreate},
	{"/v1/datasets/", "datasets", []string{http.MethodGet, http.MethodHead}, isFieldDownload, (*Server).datasetGet},
}

// Handler mounts the route table behind serve, and beside it the ops
// surface, which is neither admitted, counted nor deadline-bound.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for i := range routes {
		rt := &routes[i]
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { s.serve(rt, w, r) })
	}
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// request is what a handler is given: the HTTP request, the context that
// carries its deadline, and the way to a worker slot.
type request struct {
	*http.Request
	ctx     context.Context
	srv     *Server
	release func() // gives back the worker slot, once work has taken one
}

// work takes a worker slot, waiting for one no longer than the request's
// deadline allows. A handler calls it once, when everything it can do
// without the CPU is done — for an upload, when the body is in memory, so
// that a slow client holds a seat in the queue and not a slot of the pool.
// The slot is held until the response has been written.
func (rq *request) work() error {
	release, err := rq.srv.adm.acquire(rq.ctx)
	if err != nil {
		// The deadline expired, or the client hung up, while queued.
		return errQueueTimeout
	}
	rq.release = release
	if hook := rq.srv.sealHook; hook != nil {
		hook()
	}
	return nil
}

// response is what a handler returns in place of writing one: serve counts
// it before a byte of it is sent.
type response struct {
	status int
	header http.Header
	body   []byte
}

// jsonResponse is a response whose body is v as JSON; h, when not nil, holds
// headers to send along and is the response's header afterwards.
func jsonResponse(status int, h http.Header, v any) (*response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encoding the %d response: %w", status, err)
	}
	if h == nil {
		h = http.Header{}
	}
	h.Set("Content-Type", "application/json")
	return &response{status, h, append(body, '\n')}, nil
}

// serve is the one request path (see the package comment), top to bottom.
// The response is counted before it is written, so a client that has its
// answer finds it in /metrics; seats and slot are held until it is written,
// because a response in flight is still in the system.
func (s *Server) serve(rt *route, w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	rq := &request{Request: r, ctx: ctx, srv: s, release: func() {}}
	// Body reads end with the context, and the deadline with the body:
	// net/http lifts it at the body's EOF, where its own read of the
	// connection begins. A request without a body is past that point, and a
	// deadline set now would fail that read — which cancels the connection's
	// context, and so every later request on a keep-alive connection. A
	// writer that cannot set deadlines (httptest's recorder) has no
	// connection that could stall either.
	if deadline, _ := ctx.Deadline(); r.Body != http.NoBody {
		_ = http.NewResponseController(w).SetReadDeadline(deadline)
	}
	respond := func(resp *response, err error) {
		if err != nil {
			resp = s.errorResponse(rt, err)
		}
		s.met.observeRequest(rt.endpoint, resp.status)
		maps.Copy(w.Header(), resp.header)
		if resp.body != nil {
			w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
		}
		w.WriteHeader(resp.status)
		if r.Method == http.MethodHead {
			return
		}
		if _, err := w.Write(resp.body); err != nil {
			// The answer was built; only the client's connection died.
			// Nothing can be re-sent on this response, so log it.
			s.cfg.Log.Printf("frazd: %s %s: writing the %d response: %v", r.Method, r.URL.Path, resp.status, err)
		}
	}
	if !slices.Contains(rt.methods, r.Method) {
		respond(nil, errorf(http.StatusMethodNotAllowed, "%s serves %s, not %s", rt.pattern, strings.Join(rt.methods, ", "), r.Method))
		return
	}
	if rt.admitted != nil && rt.admitted(r) {
		if s.draining.Load() {
			respond(nil, errDraining)
			return
		}
		tenant := tenantOf(r)
		leave, err := s.adm.enter(tenant)
		if err != nil {
			respond(nil, fmt.Errorf("tenant %q: %w", tenant, err))
			return
		}
		defer leave()
	}
	defer func() { rq.release() }()
	respond(rt.handle(s, rq))
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
	// ClosestRatio is set on 422 infeasible responses: the best ratio the
	// search observed, so the client can decide how to relax its request.
	ClosestRatio float64 `json:"closest_ratio,omitempty"`
}

// statusError is an error that knows its status: a handler's verdict on a
// request (errorf), or an admission refusal, which also names the reason
// frazd_rejected_total counts it under.
type statusError struct {
	code   int
	reason string
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// errorf formats like fmt.Errorf, %w included: the error map looks through a
// 400 for a failed read to the deadline that may have caused it.
func errorf(code int, format string, args ...any) error {
	return &statusError{code: code, err: fmt.Errorf(format, args...)}
}

var (
	errDraining     = &statusError{http.StatusServiceUnavailable, "draining", errors.New("server is draining; retry elsewhere")}
	errQueueTimeout = &statusError{http.StatusServiceUnavailable, "queue-timeout", errors.New("timed out waiting for a worker slot")}
)

// statusClientGone is nginx's 499: the client hung up before the answer. No
// one reads the response; the code is for frazd_requests_total.
const statusClientGone = 499

// errorResponse is the error map. An error that names its status keeps it;
// the public package's sentinels map as docs/http-api.md says; an expired
// deadline is backpressure (503 + Retry-After, counted as a rejection), a
// client that hung up is 499, and anything else is this server's fault.
func (s *Server) errorResponse(rt *route, err error) *response {
	code, reason := http.StatusInternalServerError, ""
	body := apiError{Error: err.Error()}
	var se *statusError
	var inf *fraz.InfeasibleError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		code, reason = http.StatusServiceUnavailable, "timeout"
		body.Error = "request deadline exceeded: " + body.Error
	case errors.As(err, &se):
		code, reason = se.code, se.reason
	case errors.As(err, &inf):
		code, body.ClosestRatio = http.StatusUnprocessableEntity, inf.ClosestRatio
	case errors.Is(err, fraz.ErrCorrupt), errors.Is(err, fraz.ErrUnknownCodec),
		errors.Is(err, fraz.ErrDuplicateField), errors.Is(err, fraz.ErrUnsupported):
		code = http.StatusBadRequest
	case errors.Is(err, fraz.ErrFieldNotFound):
		code = http.StatusNotFound
	case errors.Is(err, context.Canceled):
		code = statusClientGone
	}
	payload, err := json.Marshal(body)
	if err != nil {
		// Only a closest ratio that is not a number fails to encode; the
		// message alone always does.
		payload, _ = json.Marshal(apiError{Error: body.Error})
	}
	resp := &response{code, http.Header{"Content-Type": {"application/json"}}, append(payload, '\n')}
	if code == http.StatusMethodNotAllowed {
		resp.header.Set("Allow", strings.Join(rt.methods, ", "))
	}
	if reason != "" {
		// Backpressure always comes with a hint, so that well-behaved
		// clients back off instead of hammering.
		resp.header.Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		s.met.observeRejection(reason)
	}
	return resp
}

// BeginDrain flips the server into drain mode: /readyz turns 503 (so load
// balancers stop routing here), and new compress/decompress work is
// rejected with 503 + Retry-After while requests already admitted run to
// completion. The caller then lets http.Server.Shutdown wait for the
// in-flight handlers. Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// CacheStats exposes the server-wide evaluation cache counters (the same
// numbers /metrics exports), for tests and embedding programs.
func (s *Server) CacheStats() fraz.CacheStats { return s.cache.Stats() }
