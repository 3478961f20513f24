package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"fraz"
	"fraz/internal/grid"
)

// testField synthesizes the same smooth compressible field the root package
// tests use, as raw little-endian bytes ready for upload.
func testShape() []int { return []int{16, 12, 10} }

func testField32() []float32 {
	shape := testShape()
	n := shape[0] * shape[1] * shape[2]
	data := make([]float32, n)
	for i := range data {
		z := i / (shape[1] * shape[2])
		rem := i % (shape[1] * shape[2])
		y := rem / shape[2]
		x := rem % shape[2]
		data[i] = float32(math.Sin(float64(z)*0.3) * math.Cos(float64(y)*0.2) * math.Sin(float64(x)*0.4+1))
	}
	return data
}

func testField64() []float64 {
	f32 := testField32()
	out := make([]float64, len(f32))
	for i, v := range f32 {
		out[i] = float64(v)
	}
	return out
}

func rawBody(wide bool) []byte {
	if wide {
		return grid.AppendLE(nil, testField64())
	}
	return grid.AppendLE(nil, testField32())
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCompress(t *testing.T, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/compress", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func headerFloat(t *testing.T, resp *http.Response, name string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(resp.Header.Get(name), 64)
	if err != nil {
		t.Fatalf("header %s=%q: %v", name, resp.Header.Get(name), err)
	}
	return v
}

// TestEndToEndOverHTTP is the tentpole acceptance test: upload float32 and
// float64 fields under a fixed-ratio and a fixed-PSNR objective, download
// the archive, decompress it through the service, and verify the objective
// record round-tripped.
func TestEndToEndOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name      string
		dtype     string
		objective string
		target    float64
		tolerance float64
	}{
		// Tolerances are fractional: the acceptance band is target·(1±tol).
		{"float32-ratio", "float32", "ratio", 10, 0.25},
		{"float64-ratio", "float64", "ratio", 10, 0.25},
		{"float32-psnr", "float32", "psnr", 60, 0.1},
		{"float64-psnr", "float64", "psnr", 60, 0.1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wide := tc.dtype == "float64"
			resp := postCompress(t, ts.URL, rawBody(wide), map[string]string{
				"X-Fraz-Shape":     "16x12x10",
				"X-Fraz-DType":     tc.dtype,
				"X-Fraz-Objective": tc.objective,
				"X-Fraz-Target":    fmt.Sprint(tc.target),
				"X-Fraz-Tolerance": fmt.Sprint(tc.tolerance),
			})
			archive := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compress: status %d body %s", resp.StatusCode, archive)
			}
			if got := resp.Header.Get("X-Fraz-Objective"); got != tc.objective {
				t.Fatalf("X-Fraz-Objective = %q, want %q", got, tc.objective)
			}
			achieved := headerFloat(t, resp, "X-Fraz-Achieved")
			band := tc.tolerance * tc.target
			if achieved < tc.target-band || achieved > tc.target+band {
				t.Fatalf("achieved %s %.4f outside %g ± %g", tc.objective, achieved, tc.target, band)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-fraz" {
				t.Fatalf("Content-Type = %q", ct)
			}

			// Decompress through the service with verification on.
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/decompress?verify=1", bytes.NewReader(archive))
			if err != nil {
				t.Fatal(err)
			}
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw := readAll(t, dresp)
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("decompress: status %d body %s", dresp.StatusCode, raw)
			}
			if got := dresp.Header.Get("X-Fraz-DType"); got != tc.dtype {
				t.Fatalf("decompressed dtype %q, want %q", got, tc.dtype)
			}
			if got := dresp.Header.Get("X-Fraz-Shape"); got != "16x12x10" {
				t.Fatalf("decompressed shape %q", got)
			}
			if want := len(rawBody(wide)); len(raw) != want {
				t.Fatalf("decompressed %d bytes, want %d", len(raw), want)
			}
			verified := dresp.Header.Get("X-Fraz-Verified")
			if !strings.Contains(verified, "ratio") {
				t.Fatalf("X-Fraz-Verified = %q, want ratio check", verified)
			}
			if tc.objective == "psnr" {
				// Quality archives carry the full objective record; check it
				// survived the HTTP round trip and self-verifies.
				if !strings.Contains(verified, "objective-record") {
					t.Fatalf("X-Fraz-Verified = %q, want objective-record check", verified)
				}
				if got := dresp.Header.Get("X-Fraz-Objective"); got != "psnr" {
					t.Fatalf("recorded objective %q, want psnr", got)
				}
				recAchieved := headerFloat(t, dresp, "X-Fraz-Achieved")
				if recAchieved != achieved {
					t.Fatalf("recorded achieved %.6g, compress reported %.6g", recAchieved, achieved)
				}
			}

			// Reconstruction must respect the tuned error bound.
			bound := headerFloat(t, dresp, "X-Fraz-Bound")
			checkWithinBound(t, wide, raw, bound)
		})
	}
}

func checkWithinBound(t *testing.T, wide bool, raw []byte, bound float64) {
	t.Helper()
	// Allow slack: sz:abs quantizes against the sampled block's range.
	limit := bound * 1.5
	if wide {
		orig, got := testField64(), grid.FromLE[float64](raw)
		for i := range orig {
			if d := math.Abs(orig[i] - got[i]); d > limit {
				t.Fatalf("value %d off by %g, bound %g", i, d, bound)
			}
		}
		return
	}
	orig, got := testField32(), grid.FromLE[float32](raw)
	for i := range orig {
		if d := math.Abs(float64(orig[i] - got[i])); d > limit {
			t.Fatalf("value %d off by %g, bound %g", i, d, bound)
		}
	}
}

// TestFixedRateDirectOverHTTP uploads under the fixed-rate codec and checks
// the direct-satisfaction path surfaces over HTTP: a fixed-ratio objective
// with frsz:rate must seal with zero search evaluations (the tuner inverts
// the target ratio into a bits-per-value setting arithmetically) and still
// round-trip through the service.
func TestFixedRateDirectOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, dtype := range []string{"float32", "float64"} {
		t.Run(dtype, func(t *testing.T) {
			wide := dtype == "float64"
			resp := postCompress(t, ts.URL, rawBody(wide), map[string]string{
				"X-Fraz-Shape":     "16x12x10",
				"X-Fraz-DType":     dtype,
				"X-Fraz-Codec":     "frsz:rate",
				"X-Fraz-Objective": "ratio",
				"X-Fraz-Target":    "8",
				"X-Fraz-Tolerance": "0.25",
			})
			archive := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compress: status %d body %s", resp.StatusCode, archive)
			}
			if got := resp.Header.Get("X-Fraz-Codec"); got != "frsz:rate" {
				t.Fatalf("X-Fraz-Codec = %q, want frsz:rate", got)
			}
			if got := resp.Header.Get("X-Fraz-Evaluations"); got != "0" {
				t.Fatalf("X-Fraz-Evaluations = %q, want 0 (direct satisfaction)", got)
			}
			achieved := headerFloat(t, resp, "X-Fraz-Achieved")
			if achieved < 6 || achieved > 10 {
				t.Fatalf("achieved ratio %.3f outside 8 ± 25%%", achieved)
			}

			dresp, err := http.Post(ts.URL+"/v1/decompress?verify=1", "application/x-fraz", bytes.NewReader(archive))
			if err != nil {
				t.Fatal(err)
			}
			raw := readAll(t, dresp)
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("decompress: status %d body %s", dresp.StatusCode, raw)
			}
			if want := len(rawBody(wide)); len(raw) != want {
				t.Fatalf("decompressed %d bytes, want %d", len(raw), want)
			}
		})
	}
}

// TestStoreAndArchiveLifecycle covers ?store=1 → GET by id → decompress by
// id → DELETE.
func TestStoreAndArchiveLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postCompress(t, ts.URL, rawBody(false), map[string]string{
		"X-Fraz-Shape": "16x12x10",
		"X-Fraz-Store": "1",
	})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("store: status %d body %s", resp.StatusCode, body)
	}
	var created struct {
		ID    string  `json:"id"`
		Bytes int     `json:"bytes"`
		Ratio float64 `json:"ratio"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("created body %s: %v", body, err)
	}
	if created.ID == "" || created.Bytes <= 0 {
		t.Fatalf("created = %+v", created)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/archives/"+created.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Download the archive by id.
	aresp, err := http.Get(ts.URL + "/v1/archives/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	archive := readAll(t, aresp)
	if aresp.StatusCode != http.StatusOK || len(archive) != created.Bytes {
		t.Fatalf("archive GET: status %d, %d bytes (want %d)", aresp.StatusCode, len(archive), created.Bytes)
	}
	// It must be a valid .fraz container.
	if _, err := fraz.DecompressFull(context.Background(), bytes.NewReader(archive)); err != nil {
		t.Fatalf("downloaded archive does not decode: %v", err)
	}

	// Decompress by id, no body.
	dresp, err := http.Post(ts.URL+"/v1/decompress?id="+created.ID, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, dresp)
	if dresp.StatusCode != http.StatusOK || len(raw) != len(rawBody(false)) {
		t.Fatalf("decompress by id: status %d, %d bytes", dresp.StatusCode, len(raw))
	}

	// Re-uploading the identical field lands on the same content address.
	resp2 := postCompress(t, ts.URL, rawBody(false), map[string]string{
		"X-Fraz-Shape": "16x12x10",
		"X-Fraz-Store": "1",
	})
	body2 := readAll(t, resp2)
	var again struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body2, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != created.ID {
		t.Fatalf("same upload produced id %s then %s", created.ID, again.ID)
	}

	// DELETE, then both lookups 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/archives/"+created.ID, nil)
	delresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, delresp)
	if delresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", delresp.StatusCode)
	}
	gone, err := http.Get(ts.URL + "/v1/archives/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, gone)
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE: status %d", gone.StatusCode)
	}
}

// TestBadRequests walks the 4xx surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxFieldBytes: 1 << 20})
	cases := []struct {
		name string
		hdr  map[string]string
		body []byte
		want int
	}{
		{"missing shape", map[string]string{}, rawBody(false), http.StatusBadRequest},
		{"bad shape", map[string]string{"X-Fraz-Shape": "0x12"}, rawBody(false), http.StatusBadRequest},
		{"bad dtype", map[string]string{"X-Fraz-Shape": "16x12x10", "X-Fraz-DType": "int8"}, rawBody(false), http.StatusBadRequest},
		{"unknown codec", map[string]string{"X-Fraz-Shape": "16x12x10", "X-Fraz-Codec": "nope"}, rawBody(false), http.StatusBadRequest},
		{"unknown objective", map[string]string{"X-Fraz-Shape": "16x12x10", "X-Fraz-Objective": "vibes", "X-Fraz-Target": "1"}, rawBody(false), http.StatusBadRequest},
		{"objective without target", map[string]string{"X-Fraz-Shape": "16x12x10", "X-Fraz-Objective": "psnr"}, rawBody(false), http.StatusBadRequest},
		{"short body", map[string]string{"X-Fraz-Shape": "16x12x10"}, rawBody(false)[:100], http.StatusBadRequest},
		{"oversized field", map[string]string{"X-Fraz-Shape": "1024x1024"}, nil, http.StatusRequestEntityTooLarge},
		// Extents whose product wraps int: to a negative count, which used to
		// panic in make, and to a plausible one, which used to be believed.
		{"shape wraps negative", map[string]string{"X-Fraz-Shape": "2305843009213693951x2"}, make([]byte, 4), http.StatusBadRequest},
		{"shape wraps positive", map[string]string{"X-Fraz-Shape": "3037000500x3037000500"}, make([]byte, 4), http.StatusBadRequest},
		// A well-formed request the codec or the objective can never serve is
		// the client's error, not the server's: these answered 500.
		{"codec cannot serve the rank", map[string]string{"X-Fraz-Shape": "64", "X-Fraz-Codec": "mgard:abs"}, make([]byte, 256), http.StatusBadRequest},
		{"objective cannot serve the rank", map[string]string{"X-Fraz-Shape": "64", "X-Fraz-Objective": "ssim", "X-Fraz-Target": "0.9"}, make([]byte, 256), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postCompress(t, ts.URL, tc.body, tc.hdr)
			body := readAll(t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			var e apiError
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q not a JSON error: %v", body, err)
			}
		})
	}

	// GET on compress is a method error.
	resp, err := http.Get(ts.URL + "/v1/compress")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/compress: status %d", resp.StatusCode)
	}

	// Garbage archive on decompress.
	dresp, err := http.Post(ts.URL+"/v1/decompress", "application/x-fraz", strings.NewReader("not a container"))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, dresp)
	if dresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage decompress: status %d", dresp.StatusCode)
	}

	// Unknown archive id.
	aresp, err := http.Get(ts.URL + "/v1/archives/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, aresp)
	if aresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown archive: status %d", aresp.StatusCode)
	}
}

// TestInfeasibleTargetReturns422 asks for a ratio no codec can reach on
// this field and expects the structured infeasibility answer.
func TestInfeasibleTargetReturns422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postCompress(t, ts.URL, rawBody(false), map[string]string{
		"X-Fraz-Shape":     "16x12x10",
		"X-Fraz-Target":    "100000",
		"X-Fraz-Tolerance": "0.01",
	})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (body %s)", resp.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.ClosestRatio <= 0 {
		t.Fatalf("closest_ratio = %g, want > 0 (body %s)", e.ClosestRatio, body)
	}
}

func TestHealthAndReady(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", ep, resp.StatusCode)
		}
	}
	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: status %d, want 503", resp.StatusCode)
	}
	// Liveness stays green during a drain.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, hresp)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: status %d", hresp.StatusCode)
	}
}
