package server

import (
	"bytes"
	"net/http"
	"testing"

	"fraz/internal/codestream/codestreamtest"
	"fraz/internal/container"
	"fraz/internal/grid"
	"fraz/internal/mgard"
	"fraz/internal/sz"
)

// TestDecompressHostilePayloads wraps the two forged code streams of the sz
// and mgard corruption tables — a literal count of two billion, a DEFLATE
// bomb — in containers whose CRCs are right, so nothing ahead of the kernel
// can refuse them, and uploads them, then a 106-byte blocked archive whose
// header claims 2×2^20×2^14 values over two 3-byte blocks. The daemon must
// answer 400 and keep serving; before the shared code-stream reader checked
// counts and bounded inflation, the first died with "out of memory" inside
// the handler, and before the open checked a shape against its payload, so
// did the last.
func TestDecompressHostilePayloads(t *testing.T) {
	data := make([]float32, 64)
	for i := range data {
		data[i] = float32(i%9) / 4
	}
	szStream, err := sz.Compress(data, grid.MustDims(64), sz.Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	mgardStream, err := mgard.Compress(data, grid.MustDims(8, 8), mgard.Options{Bound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	codecs := []struct {
		name   string
		shape  grid.Dims
		stream []byte
		layout codestreamtest.Layout
	}{
		{"sz:abs", grid.MustDims(64), szStream, codestreamtest.Layout{HeaderLen: 22 + 4, FlagOffset: 4, HeadChunks: 1}},
		{"mgard:abs", grid.MustDims(8, 8), mgardStream, codestreamtest.Layout{HeaderLen: 15 + 8, FlagOffset: 5}},
	}

	archives := map[string]container.Container{}
	for _, c := range codecs {
		forged, bomb, err := codestreamtest.Forge(c.stream, c.layout, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		for kind, payload := range map[string][]byte{"forged literal count": forged, "deflate bomb": bomb} {
			if archives[c.name+", "+kind], err = container.New(c.name, 1e-3, 4, container.Float32, c.shape, [][]byte{payload}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if archives["shape its payload cannot carry"], err = container.New("szx:abs", 1e-3, 4, container.Float32,
		grid.MustDims(2, 1<<20, 1<<14), [][]byte{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	for name, cn := range archives {
		archive, err := cn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/decompress", "application/x-fraz", bytes.NewReader(archive))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, body)
		}
	}

	// Still alive and decoding.
	resp := postCompress(t, ts.URL, rawBody(false), map[string]string{"X-Fraz-Shape": "16x12x10"})
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress after the hostile uploads: status %d", resp.StatusCode)
	}
}
