package server

import (
	"bytes"
	"encoding/json"
	"math"
	"mime/multipart"
	"net/http"
	"strings"
	"testing"

	"fraz/internal/grid"
)

// noisyField32 is a rougher second field so the per-field codec race has
// something to disagree about.
func noisyField32() []float32 {
	shape := testShape()
	n := shape[0] * shape[1] * shape[2]
	data := make([]float32, n)
	rng := uint64(42)
	for i := range data {
		rng = rng*6364136223846793005 + 1442695040888963407
		noise := float64(rng>>40)/float64(1<<24) - 0.5
		data[i] = float32(math.Sin(float64(i)*0.05) + 0.8*noise)
	}
	return data
}

// postDataset uploads named fields as one multipart request.
func postDataset(t *testing.T, url string, fields map[string][]float32, hdr map[string]string) *http.Response {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for name, data := range fields {
		part, err := mw.CreateFormFile(name, name+".f32")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := part.Write(grid.AppendLE(nil, data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/datasets", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

type datasetCreateBody struct {
	ID             string  `json:"id"`
	Bytes          int     `json:"bytes"`
	AggregateRatio float64 `json:"aggregate_ratio"`
	Fields         []struct {
		Name  string  `json:"name"`
		Codec string  `json:"codec"`
		Ratio float64 `json:"ratio"`
		Raced int     `json:"raced"`
	} `json:"fields"`
}

func TestDatasetUploadAndFieldDownload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	smooth := testField32()
	noisy := noisyField32()
	resp := postDataset(t, ts.URL, map[string][]float32{"SMOOTH": smooth, "NOISE": noisy},
		map[string]string{"X-Fraz-Shape": "16x12x10", "X-Fraz-Objective": "psnr", "X-Fraz-Target": "55"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/datasets = %d: %s", resp.StatusCode, body)
	}
	var created datasetCreateBody
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("bad create body %s: %v", body, err)
	}
	if created.ID == "" || len(created.Fields) != 2 {
		t.Fatalf("create body = %+v, want id and 2 fields", created)
	}
	if created.AggregateRatio <= 1 {
		t.Errorf("aggregate ratio %.2f, want > 1", created.AggregateRatio)
	}
	for _, f := range created.Fields {
		if f.Codec == "" || f.Codec == "auto" {
			t.Errorf("field %s sealed with codec %q, want a concrete winner", f.Name, f.Codec)
		}
		if f.Raced < 2 {
			t.Errorf("field %s raced %d codecs, want >= 2", f.Name, f.Raced)
		}
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/datasets/"+created.ID {
		t.Errorf("Location = %q, want /v1/datasets/%s", loc, created.ID)
	}

	// The directory listing names both fields.
	resp, err := http.Get(ts.URL + "/v1/datasets/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	dirBody := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET dataset = %d: %s", resp.StatusCode, dirBody)
	}
	var dir struct {
		Fields []struct {
			Name string `json:"name"`
			Step int    `json:"step"`
		} `json:"fields"`
	}
	if err := json.Unmarshal(dirBody, &dir); err != nil {
		t.Fatal(err)
	}
	if len(dir.Fields) != 2 {
		t.Fatalf("directory lists %d fields, want 2: %s", len(dir.Fields), dirBody)
	}

	// Each field downloads alone and reconstructs within the PSNR band.
	for name, orig := range map[string][]float32{"SMOOTH": smooth, "NOISE": noisy} {
		resp, err := http.Get(ts.URL + "/v1/datasets/" + created.ID + "/fields/" + name)
		if err != nil {
			t.Fatal(err)
		}
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET field %s = %d: %s", name, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-Fraz-Objective"); got != "psnr" {
			t.Errorf("field %s objective header = %q, want psnr", name, got)
		}
		if resp.Header.Get("X-Fraz-Codec") == "" {
			t.Errorf("field %s response missing X-Fraz-Codec", name)
		}
		recon := grid.FromLE[float32](raw)
		if len(recon) != len(orig) {
			t.Fatalf("field %s: %d values back, want %d", name, len(recon), len(orig))
		}
		if got := psnrOf(orig, recon); got < 50 {
			t.Errorf("field %s PSNR %.1f dB, want >= 50 (target 55 ± default band)", name, got)
		}
	}
}

func psnrOf(orig, recon []float32) float64 {
	lo, hi := orig[0], orig[0]
	var mse float64
	for i := range orig {
		if orig[i] < lo {
			lo = orig[i]
		}
		if orig[i] > hi {
			hi = orig[i]
		}
		d := float64(orig[i]) - float64(recon[i])
		mse += d * d
	}
	mse /= float64(len(orig))
	if mse == 0 {
		return math.Inf(1)
	}
	return 20*math.Log10(float64(hi-lo)) - 10*math.Log10(mse)
}

func TestDatasetPinnedCodec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postDataset(t, ts.URL, map[string][]float32{"F": testField32()},
		map[string]string{"X-Fraz-Shape": "16x12x10", "X-Fraz-Codec": "zfp:accuracy", "X-Fraz-Objective": "psnr", "X-Fraz-Target": "50"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	var created datasetCreateBody
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if len(created.Fields) != 1 || created.Fields[0].Codec != "zfp:accuracy" {
		t.Fatalf("fields = %+v, want one field pinned to zfp:accuracy", created.Fields)
	}
	if created.Fields[0].Raced != 0 {
		t.Errorf("pinned codec raced %d candidates, want 0", created.Fields[0].Raced)
	}
}

func TestDatasetErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Non-multipart body.
	resp := postCompressTo(t, ts.URL, "/v1/datasets", []byte("raw"), map[string]string{"X-Fraz-Shape": "4"})
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-multipart POST = %d: %s, want 400", resp.StatusCode, body)
	}

	// Wrong field size, and shapes whose element count wraps int (to a
	// negative and to a plausible positive count).
	for _, shape := range []string{"16x12x10", "2305843009213693951x2", "3037000500x3037000500"} {
		resp = postDataset(t, ts.URL, map[string][]float32{"F": make([]float32, 7)},
			map[string]string{"X-Fraz-Shape": shape})
		if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("7-value field POSTed as shape %s = %d: %s, want 400", shape, resp.StatusCode, body)
		}
	}

	// A part the pinned codec, or the objective whichever codec races,
	// cannot serve at its rank (these answered 500).
	for _, hdr := range []map[string]string{
		{"X-Fraz-Shape": "64", "X-Fraz-Codec": "mgard:abs"},
		{"X-Fraz-Shape": "64", "X-Fraz-Objective": "ssim", "X-Fraz-Target": "0.9"},
	} {
		resp = postDataset(t, ts.URL, map[string][]float32{"F": make([]float32, 64)}, hdr)
		if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "field F") {
			t.Errorf("dataset part with %v = %d: %s, want 400 naming the field", hdr, resp.StatusCode, body)
		}
	}

	// Unknown dataset id.
	for _, path := range []string{"/v1/datasets/deadbeef", "/v1/datasets/deadbeef/fields/F"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d: %s, want 404", path, resp.StatusCode, body)
		}
	}

	// Stored dataset, unknown field / bad step / single-field archive id.
	resp = postDataset(t, ts.URL, map[string][]float32{"F": testField32()},
		map[string]string{"X-Fraz-Shape": "16x12x10", "X-Fraz-Objective": "psnr", "X-Fraz-Target": "50"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	var created datasetCreateBody
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{
		"/v1/datasets/" + created.ID + "/fields/MISSING":  http.StatusNotFound,
		"/v1/datasets/" + created.ID + "/fields/F?step=9": http.StatusNotFound,
		"/v1/datasets/" + created.ID + "/fields/F?step=x": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); resp.StatusCode != want {
			t.Errorf("GET %s = %d: %s, want %d", path, resp.StatusCode, body, want)
		}
	}

	// A single-field archive id is not a dataset id, even though the store
	// is shared.
	resp = postCompress(t, ts.URL, rawBody(false),
		map[string]string{"X-Fraz-Shape": "16x12x10", "X-Fraz-Store": "1"})
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("store compress = %d: %s", resp.StatusCode, body)
	}
	var stored struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &stored); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/datasets/" + stored.ID)
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET dataset with archive id = %d: %s, want 404", resp.StatusCode, body)
	}
}

// postCompressTo posts an arbitrary body to an arbitrary path.
func postCompressTo(t *testing.T, url, path string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
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

func TestDatasetDrainRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()
	resp := postDataset(t, ts.URL, map[string][]float32{"F": testField32()},
		map[string]string{"X-Fraz-Shape": "16x12x10"})
	if body := readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining POST /v1/datasets = %d: %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining rejection missing Retry-After")
	}
}

func TestDatasetMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/datasets = %d, want 405", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/abc", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/datasets/abc = %d, want 405", resp.StatusCode)
	}
}
