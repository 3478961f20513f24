package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// routeFixture is a server with one archive and one dataset in its store and
// a seal hook the test steers: passive, holding requests inside their worker
// slot, or sleeping there past the request deadline.
type routeFixture struct {
	t       *testing.T
	s       *Server
	ts      *httptest.Server
	archive string // id of a stored single-field archive
	dataset string // id of a stored dataset with one field, F
	hold    atomic.Bool
	sleep   atomic.Int64 // nanoseconds every hooked request sleeps in its slot
	entered chan struct{}
	release chan struct{}
}

func newRouteFixture(t *testing.T, cfg Config) *routeFixture {
	fx := &routeFixture{t: t, s: New(cfg), entered: make(chan struct{}, 4), release: make(chan struct{})}
	fx.s.sealHook = func() {
		time.Sleep(time.Duration(fx.sleep.Load()))
		if fx.hold.Load() {
			fx.entered <- struct{}{}
			<-fx.release
		}
	}
	fx.ts = httptest.NewServer(fx.s.Handler())
	t.Cleanup(fx.ts.Close)
	var created struct {
		ID string `json:"id"`
	}
	for _, seed := range []struct {
		req *http.Request
		id  *string
	}{
		{fx.compressRequest("seed", "1"), &fx.archive},
		{fx.datasetRequest("seed"), &fx.dataset},
	} {
		resp, err := http.DefaultClient.Do(seed.req)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if err := json.Unmarshal(body, &created); err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("seeding the store: %d %s (%v)", resp.StatusCode, body, err)
		}
		*seed.id = created.ID
	}
	return fx
}

func (fx *routeFixture) request(method, path, tenant string, body []byte, hdr map[string]string) *http.Request {
	req, err := http.NewRequest(method, fx.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		fx.t.Fatal(err)
	}
	req.Header.Set("X-Fraz-Tenant", tenant)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return req
}

func (fx *routeFixture) compressRequest(tenant, store string) *http.Request {
	return fx.request(http.MethodPost, "/v1/compress", tenant, rawBody(false),
		map[string]string{"X-Fraz-Shape": "16x12x10", "X-Fraz-Store": store})
}

func (fx *routeFixture) datasetRequest(tenant string) *http.Request {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	part, err := mw.CreateFormField("F")
	if err == nil {
		_, err = part.Write(rawBody(false))
	}
	if err == nil {
		err = mw.Close()
	}
	if err != nil {
		fx.t.Fatal(err)
	}
	return fx.request(http.MethodPost, "/v1/datasets", tenant, buf.Bytes(),
		map[string]string{"X-Fraz-Shape": "16x12x10", "X-Fraz-Codec": "sz:abs", "Content-Type": mw.FormDataContentType()})
}

// probes is one well-formed request per behaviour a route has, and what it
// answers on an idle server.
func (fx *routeFixture) probes(tenant string) []routeProbe {
	return []routeProbe{
		{"/v1/compress", fx.compressRequest(tenant, "0"), http.StatusOK},
		{"/v1/decompress", fx.request(http.MethodPost, "/v1/decompress?id="+fx.archive, tenant, nil, nil), http.StatusOK},
		{"/v1/archives/", fx.request(http.MethodGet, "/v1/archives/"+fx.archive, tenant, nil, nil), http.StatusOK},
		{"/v1/datasets", fx.datasetRequest(tenant), http.StatusCreated},
		{"/v1/datasets/", fx.request(http.MethodGet, "/v1/datasets/"+fx.dataset, tenant, nil, nil), http.StatusOK},
		{"/v1/datasets/", fx.request(http.MethodGet, "/v1/datasets/"+fx.dataset+"/fields/F", tenant, nil, nil), http.StatusOK},
	}
}

type routeProbe struct {
	pattern string
	req     *http.Request
	idle    int
}

// served sums frazd_requests_total over every endpoint and code.
func (fx *routeFixture) served() float64 {
	total := 0.0
	for series, v := range scrapeMetrics(fx.t, fx.ts.URL) {
		if strings.HasPrefix(series, "frazd_requests_total{") {
			total += v
		}
	}
	return total
}

// check sends one request and holds the response to what every exit of the
// request path owes: the status, Retry-After on backpressure, a JSON error
// body on anything but success, and exactly one count in
// frazd_requests_total.
func (fx *routeFixture) check(name string, req *http.Request, want int) {
	fx.t.Helper()
	before := fx.served()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fx.t.Fatalf("%s: %v", name, err)
	}
	body := readAll(fx.t, resp)
	if resp.StatusCode != want {
		fx.t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, want, body)
	}
	if resp.StatusCode == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
		fx.t.Errorf("%s: 405 without Allow", name)
	}
	if backpressure := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable; backpressure != (resp.Header.Get("Retry-After") != "") {
		fx.t.Errorf("%s: status %d with Retry-After %q", name, resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if resp.StatusCode >= 300 {
		var e apiError
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			fx.t.Errorf("%s: status %d with body %q, want a JSON error", name, resp.StatusCode, body)
		}
	}
	if got := fx.served() - before; got != 1 {
		fx.t.Errorf("%s: frazd_requests_total grew by %g, want exactly 1", name, got)
	}
}

// holdSlot parks one compress request of the tenant inside a worker slot and
// returns when it is there.
func (fx *routeFixture) holdSlot(tenant string) {
	fx.hold.Store(true)
	go func() {
		if resp, err := http.DefaultClient.Do(fx.compressRequest(tenant, "0")); err == nil {
			resp.Body.Close()
		}
	}()
	<-fx.entered
	fx.hold.Store(false)
}

// TestRouteAccounting is the invariant of the one request path, over the
// route table: whatever turns a request away — its method, a drain, its
// tenant's allowance, the queue bound, the wait for a slot, the deadline
// mid-work — or nothing at all, the answer has the documented shape and is
// counted once. A route that is not admitted work answers as if idle
// throughout; a route the table gains without a probe here fails the test.
func TestRouteAccounting(t *testing.T) {
	refused := func(rt *route, p routeProbe, status int) int {
		if rt.admitted != nil && rt.admitted(p.req) {
			return status
		}
		return p.idle
	}
	scenarios := []struct {
		name   string
		cfg    Config
		tenant string
		arm    func(fx *routeFixture) // puts the server in the state the scenario names
		want   func(rt *route, p routeProbe) int
		// disarm, where the state can be left again, leaves it: every probe
		// is then sent once more — http.DefaultClient reuses the connections
		// the refusals were answered on — and must answer as if idle.
		disarm func(fx *routeFixture)
	}{
		{"success", Config{}, "t", func(*routeFixture) {},
			func(rt *route, p routeProbe) int { return p.idle }, nil},
		{"wrong method", Config{}, "t", func(*routeFixture) {},
			func(*route, routeProbe) int { return http.StatusMethodNotAllowed }, nil},
		{"draining", Config{}, "t", func(fx *routeFixture) { fx.s.BeginDrain() },
			func(rt *route, p routeProbe) int { return refused(rt, p, http.StatusServiceUnavailable) }, nil},
		{"tenant saturated", Config{Concurrency: 2, PerTenant: 1}, "t", func(fx *routeFixture) { fx.holdSlot("t") },
			func(rt *route, p routeProbe) int { return refused(rt, p, http.StatusTooManyRequests) }, nil},
		{"queue full", Config{Concurrency: 1, QueueDepth: 1, PerTenant: 1}, "t", func(fx *routeFixture) {
			fx.holdSlot("a")
			go func() { // takes the one queue seat and waits there for the slot
				if resp, err := http.DefaultClient.Do(fx.compressRequest("b", "0")); err == nil {
					resp.Body.Close()
				}
			}()
			for fx.s.adm.queued() < 1 {
				time.Sleep(time.Millisecond)
			}
		}, func(rt *route, p routeProbe) int { return refused(rt, p, http.StatusTooManyRequests) }, nil},
		{"queue timeout", Config{Concurrency: 1, QueueDepth: 4, RequestTimeout: 100 * time.Millisecond}, "t",
			func(fx *routeFixture) { fx.holdSlot("a") },
			func(rt *route, p routeProbe) int { return refused(rt, p, http.StatusServiceUnavailable) },
			func(fx *routeFixture) { fx.release <- struct{}{} }},
		{"mid-work deadline", Config{RequestTimeout: 100 * time.Millisecond}, "t",
			func(fx *routeFixture) { fx.sleep.Store(int64(150 * time.Millisecond)) },
			func(rt *route, p routeProbe) int { return refused(rt, p, http.StatusServiceUnavailable) },
			func(fx *routeFixture) { fx.sleep.Store(0) }},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// The store is seeded under a generous deadline; the scenario's
			// own takes over before it is armed.
			cfg := sc.cfg
			cfg.RequestTimeout = 0
			fx := newRouteFixture(t, cfg)
			if sc.cfg.RequestTimeout > 0 {
				fx.s.cfg.RequestTimeout = sc.cfg.RequestTimeout
			}
			defer close(fx.release) // lets every parked request finish before the listener closes
			sc.arm(fx)
			probed := map[string]bool{}
			for _, p := range fx.probes(sc.tenant) {
				var rt *route
				for i := range routes {
					if routes[i].pattern == p.pattern {
						rt = &routes[i]
					}
				}
				if rt == nil {
					t.Fatalf("probe for %s matches no route", p.pattern)
				}
				probed[p.pattern] = true
				if sc.name == "wrong method" {
					p.req.Method = http.MethodPut
				}
				fx.check(fmt.Sprintf("%s %s", p.req.Method, p.req.URL.Path), p.req, sc.want(rt, p))
			}
			for i := range routes {
				if !probed[routes[i].pattern] {
					t.Errorf("route %s has no probe", routes[i].pattern)
				}
			}
			if sc.disarm != nil {
				fx.s.cfg.RequestTimeout = time.Minute
				sc.disarm(fx)
				for _, p := range fx.probes(sc.tenant) {
					fx.check(fmt.Sprintf("afterwards, %s %s", p.req.Method, p.req.URL.Path), p.req, p.idle)
				}
			}
		})
	}
}

// TestStalledBodyGivesItsSeatsBack sends the headers and half the body of an
// upload and then nothing. Bodies are read under the request deadline, so
// the request must end when a stalled tune would — 503, reason timeout —
// and leave the queue empty, no slot taken (a dataset upload holds one while
// its parts arrive) and its tenant's one seat free.
func TestStalledBodyGivesItsSeatsBack(t *testing.T) {
	for _, endpoint := range []string{"compress", "datasets"} {
		t.Run(endpoint, func(t *testing.T) {
			fx := newRouteFixture(t, Config{PerTenant: 1})
			defer close(fx.release)
			fx.s.cfg.RequestTimeout = 100 * time.Millisecond
			req := fx.compressRequest("slow", "0")
			if endpoint == "datasets" {
				req = fx.datasetRequest("slow")
			}
			var wire bytes.Buffer
			if err := req.Write(&wire); err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", fx.ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(wire.Bytes()[:wire.Len()-len(rawBody(false))/2]); err != nil {
				t.Fatal(err)
			}
			if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			answer := make([]byte, 4096)
			n, err := conn.Read(answer)
			if err != nil {
				t.Fatalf("no answer to a stalled upload: %v", err)
			}
			if got := string(answer[:n]); !strings.HasPrefix(got, "HTTP/1.1 503 ") || !strings.Contains(got, "Retry-After: ") {
				t.Fatalf("stalled upload answered:\n%s", got)
			}
			m := scrapeMetrics(t, fx.ts.URL)
			if m[`frazd_rejected_total{reason="timeout"}`] != 1 || m[`frazd_requests_total{endpoint="`+endpoint+`",code="503"}`] != 1 {
				t.Errorf("stalled upload not accounted as one timeout: %v", m)
			}
			if m["frazd_queue_depth"] != 0 || m["frazd_tunes_in_flight"] != 0 {
				t.Errorf("queue depth %g, in flight %g after the stalled upload ended, want 0 and 0", m["frazd_queue_depth"], m["frazd_tunes_in_flight"])
			}
			// frsz:rate seals without a search, inside the deadline on any machine.
			next := fx.compressRequest("slow", "0")
			next.Header.Set("X-Fraz-Codec", "frsz:rate")
			fx.check("the tenant's next upload", next, http.StatusOK)
		})
	}
}

// TestConnectionOutlivesDeadline holds one keep-alive connection through a
// request that ends at its deadline — waiting for a slot, or working in one;
// an upload, or a request with no body — and requires the next request on
// the SAME connection to be served. The read deadline is the body's alone
// (net/http lifts it at the body's EOF; serve sets none where there is no
// body): one left standing fails net/http's own read of the connection,
// which cancels the connection's context, and with it every later request's.
func TestConnectionOutlivesDeadline(t *testing.T) {
	for _, tc := range []struct {
		name   string
		queued bool // the slot is taken: the request times out waiting for it
		req    func(fx *routeFixture) *http.Request
	}{
		{"upload, queued", true, func(fx *routeFixture) *http.Request { return fx.compressRequest("t", "0") }},
		{"upload, mid-work", false, func(fx *routeFixture) *http.Request { return fx.compressRequest("t", "0") }},
		{"no body, queued", true, func(fx *routeFixture) *http.Request {
			return fx.request(http.MethodPost, "/v1/decompress?id="+fx.archive, "t", nil, nil)
		}},
		{"no body, mid-work", false, func(fx *routeFixture) *http.Request {
			return fx.request(http.MethodGet, "/v1/datasets/"+fx.dataset+"/fields/F", "t", nil, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newRouteFixture(t, Config{Concurrency: 1, QueueDepth: 4})
			defer close(fx.release)
			fx.s.cfg.RequestTimeout = 100 * time.Millisecond
			conn, err := net.Dial("tcp", fx.ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			do := func(req *http.Request) (int, []byte) {
				t.Helper()
				if err := req.Write(conn); err != nil {
					t.Fatal(err)
				}
				resp, err := http.ReadResponse(br, req)
				if err != nil {
					t.Fatalf("the connection did not answer: %v", err)
				}
				return resp.StatusCode, readAll(t, resp)
			}

			if tc.queued {
				fx.holdSlot("a")
			} else {
				fx.sleep.Store(int64(150 * time.Millisecond))
			}
			if status, body := do(tc.req(fx)); status != http.StatusServiceUnavailable {
				t.Fatalf("the request that meets its deadline: %d %s, want 503", status, body)
			}
			if tc.queued {
				fx.release <- struct{}{}
			}
			fx.sleep.Store(0)
			// frsz:rate seals without a search, inside the deadline on any
			// machine. A request whose context is dead on arrival still gets
			// past the wait for a slot every other time, so ask a few times.
			for i := 0; i < 8; i++ {
				next := fx.compressRequest("t", "0")
				next.Header.Set("X-Fraz-Codec", "frsz:rate")
				if status, body := do(next); status != http.StatusOK {
					t.Fatalf("request %d after it on the connection: %d %s, want 200", i+1, status, body)
				}
			}
		})
	}
}
