package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fraz/internal/grid"
)

func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSharedCachePayoffAcrossRequests is the acceptance criterion for the
// server-wide cache: uploading the same field twice shows the second tune
// hitting the cache — the hit counter increments and the second request
// reports cache hits where the first reported none.
func TestSharedCachePayoffAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	hdr := map[string]string{"X-Fraz-Shape": "16x12x10"}

	first := postCompress(t, ts.URL, rawBody(false), hdr)
	readAll(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first upload: status %d", first.StatusCode)
	}
	firstHits, _ := strconv.Atoi(first.Header.Get("X-Fraz-Cache-Hits"))
	firstEvals, _ := strconv.Atoi(first.Header.Get("X-Fraz-Evaluations"))
	afterFirst := s.CacheStats()
	if afterFirst.Misses == 0 {
		t.Fatalf("first upload produced no cache misses: %+v", afterFirst)
	}

	second := postCompress(t, ts.URL, rawBody(false), hdr)
	readAll(t, second)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second upload: status %d", second.StatusCode)
	}
	secondHits, _ := strconv.Atoi(second.Header.Get("X-Fraz-Cache-Hits"))
	secondEvals, _ := strconv.Atoi(second.Header.Get("X-Fraz-Evaluations"))
	afterSecond := s.CacheStats()

	if secondHits == 0 {
		t.Fatalf("second identical upload reported no cache hits (first %d/%d, second %d/%d)",
			firstHits, firstEvals, secondHits, secondEvals)
	}
	if afterSecond.Hits <= afterFirst.Hits {
		t.Fatalf("server-wide hit counter did not grow: %d -> %d", afterFirst.Hits, afterSecond.Hits)
	}
	freshFirst := afterFirst.Misses
	freshSecond := afterSecond.Misses - afterFirst.Misses
	if freshSecond >= freshFirst {
		t.Fatalf("second upload evaluated as much as the first: %d vs %d fresh misses", freshSecond, freshFirst)
	}

	// The payoff is visible on the ops surface too.
	m := scrapeMetrics(t, ts.URL)
	if m["frazd_cache_hits_total"] == 0 {
		t.Fatal("frazd_cache_hits_total = 0 after a cache-hit upload")
	}
	if m["frazd_cache_hit_rate"] <= 0 || m["frazd_cache_hit_rate"] >= 1 {
		t.Fatalf("frazd_cache_hit_rate = %g, want in (0,1)", m["frazd_cache_hit_rate"])
	}
}

// TestConcurrentUploadsShareCache drives the shared evaluation cache the way
// real traffic does: three clients uploading at once, two distinct fields
// between them so that tunes of the same field overlap and tunes of different
// fields interleave. Every upload is answered 200 with an archive smaller than
// its field that the service decompresses back to the field's size. Run under
// the race detector, it is what shows the cache, the admission counters and
// the metrics are safe to share.
func TestConcurrentUploadsShareCache(t *testing.T) {
	// Headroom for every client (one anonymous tenant) whatever GOMAXPROCS
	// is; refusals have their own tests in limits_test.go.
	s, ts := newTestServer(t, Config{Concurrency: 4, QueueDepth: 16, PerTenant: 16})
	scaled := testField32()
	for i := range scaled {
		scaled[i] = 2*scaled[i] + 1
	}
	fields := [][]byte{rawBody(false), grid.AppendLE(nil, scaled)}

	const clients, uploadsEach = 3, 3
	upload := func(field []byte) error {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compress", bytes.NewReader(field))
		if err != nil {
			return err
		}
		req.Header.Set("X-Fraz-Shape", "16x12x10")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		archive, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("upload: status %d: %s", resp.StatusCode, archive)
		}
		if len(archive) == 0 || len(archive) >= len(field) {
			return fmt.Errorf("archive of %d bytes for a %d-byte field", len(archive), len(field))
		}
		dresp, err := http.Post(ts.URL+"/v1/decompress", "application/x-fraz", bytes.NewReader(archive))
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(dresp.Body)
		dresp.Body.Close()
		if err != nil {
			return err
		}
		if dresp.StatusCode != http.StatusOK || len(raw) != len(field) {
			return fmt.Errorf("decompress: status %d, %d bytes, want 200 and %d", dresp.StatusCode, len(raw), len(field))
		}
		return nil
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < uploadsEach; i++ {
				if err := upload(fields[(c+i)%len(fields)]); err != nil {
					t.Errorf("client %d upload %d: %v", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()

	// Nine tunes of two fields cannot all have been fresh work.
	if st := s.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache after %d uploads of 2 fields: %+v, want both hits and misses", clients*uploadsEach, st)
	}
	m := scrapeMetrics(t, ts.URL)
	if got := m[`frazd_requests_total{endpoint="compress",code="200"}`]; got != clients*uploadsEach {
		t.Errorf("compress 200s = %g, want %d", got, clients*uploadsEach)
	}
}

// TestMetricsExposition exercises the whole scrape after a little traffic.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postCompress(t, ts.URL, rawBody(false), map[string]string{"X-Fraz-Shape": "16x12x10"})
	archive := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: status %d", resp.StatusCode)
	}
	dresp, err := http.Post(ts.URL+"/v1/decompress", "application/x-fraz", strings.NewReader(string(archive)))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, dresp)
	badresp := postCompress(t, ts.URL, nil, map[string]string{"X-Fraz-Shape": "bogus"})
	readAll(t, badresp)

	m := scrapeMetrics(t, ts.URL)
	checks := []struct {
		name string
		want float64
	}{
		{`frazd_requests_total{endpoint="compress",code="200"}`, 1},
		{`frazd_requests_total{endpoint="decompress",code="200"}`, 1},
		{`frazd_requests_total{endpoint="compress",code="400"}`, 1},
		{`frazd_tunes_in_flight`, 0},
		{`frazd_queue_depth`, 0},
		{`frazd_draining`, 0},
		{`frazd_field_bytes_total`, float64(len(rawBody(false)))},
		{`frazd_opened_bytes_total`, float64(len(rawBody(false)))},
		{`frazd_sealed_bytes_total`, float64(len(archive))},
		{`frazd_seal_seconds_count{codec="sz:abs"}`, 1},
	}
	for _, c := range checks {
		got, ok := m[c.name]
		if !ok {
			t.Errorf("metric %s missing from scrape", c.name)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}
	if _, ok := m[`frazd_seal_seconds_bucket{codec="sz:abs",le="+Inf"}`]; !ok {
		t.Error("seal histogram +Inf bucket missing")
	}
	if m[`frazd_cache_misses_total`] == 0 {
		t.Error("frazd_cache_misses_total = 0 after a tune")
	}

	// Rejections are labeled by reason.
	s2, ts2 := newTestServer(t, Config{})
	s2.BeginDrain()
	r := postCompress(t, ts2.URL, rawBody(false), map[string]string{"X-Fraz-Shape": "16x12x10"})
	readAll(t, r)
	m2 := scrapeMetrics(t, ts2.URL)
	if m2[`frazd_rejected_total{reason="draining"}`] != 1 {
		t.Errorf("draining rejection not counted: %v", m2[`frazd_rejected_total{reason="draining"}`])
	}
	if m2[`frazd_draining`] != 1 {
		t.Error("frazd_draining gauge not set")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from this run")

// TestMetricsGolden pins the whole exposition — every HELP and TYPE line,
// their order, every series name and value — after a fixed sequence: one
// streamed compress, one stored compress of the same field, one decompress
// by id, one unknown archive id, and one tenant refusal (with the request
// that caused it finishing afterwards). Only what depends on the clock is
// masked: the seal histogram's bucket counts and sum.
func TestMetricsGolden(t *testing.T) {
	s := New(Config{Concurrency: 2, QueueDepth: 4, PerTenant: 1})
	var holding atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	s.sealHook = func() {
		if holding.Load() {
			entered <- struct{}{}
			<-release
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hdr := map[string]string{"X-Fraz-Shape": "16x12x10"}
	expect := func(resp *http.Response, want int) []byte {
		t.Helper()
		body := readAll(t, resp)
		if resp.StatusCode != want {
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, want, body)
		}
		return body
	}

	expect(postCompress(t, ts.URL, rawBody(false), hdr), http.StatusOK)
	var stored struct {
		ID string `json:"id"`
	}
	created := expect(postCompress(t, ts.URL, rawBody(false), map[string]string{"X-Fraz-Shape": "16x12x10", "X-Fraz-Store": "1"}), http.StatusCreated)
	if err := json.Unmarshal(created, &stored); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/decompress?id="+stored.ID, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	expect(resp, http.StatusOK)
	resp, err = http.Get(ts.URL + "/v1/archives/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	expect(resp, http.StatusNotFound)

	holding.Store(true)
	held := make(chan *http.Response, 1)
	go func() { held <- postCompress(t, ts.URL, rawBody(false), hdr) }()
	<-entered
	expect(postCompress(t, ts.URL, rawBody(false), hdr), http.StatusTooManyRequests)
	holding.Store(false)
	release <- struct{}{}
	expect(<-held, http.StatusOK)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, line := range strings.SplitAfter(string(expect(resp, http.StatusOK)), "\n") {
		if strings.HasPrefix(line, "frazd_seal_seconds_bucket") || strings.HasPrefix(line, "frazd_seal_seconds_sum") {
			line = line[:strings.LastIndexByte(line, ' ')] + " MASKED\n"
		}
		got.WriteString(line)
	}
	const golden = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/metrics differs from %s (rerun with -update only if the exposition is meant to change)\n--- got\n%s--- want\n%s", golden, got.Bytes(), want)
	}
}
