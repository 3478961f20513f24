package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"fraz"
	"fraz/benchmark/fieldgen"
	"fraz/benchmark/verify"
	"fraz/internal/server"
)

// The frazd-mixed workload: internal/server on a real loopback listener in
// this process, default server.Config, driven by frazdClients closed-loop
// clients with one connection each. There is one client because the run has
// one processor (see procs): two would take turns on it, and a download
// would wait out the other client's search in ten-millisecond slices of the
// Go scheduler — the benchmark would measure that scheduler. What the
// workload adds to the library ones is the path a request takes: HTTP,
// admission, one search goroutine per request, the store and the evaluation
// cache that all requests share.
//
// Work comes in blocks. In a block every client replays its own seeded list
// of 8 requests: 5 uploads of fields never seen before (one per codec class,
// stored server-side), 1 re-upload of a field it sent in the previous block
// (answered from the shared evaluation cache, same content-addressed id),
// and 2 downloads of archives it stored in the previous block — 62/13/25 %,
// writes beside reads on one store and one cache. Between blocks, with no
// request in flight, the clients generate the next block's fields, derive
// each one's target from its own reference seal, and verify the last block's
// outputs, so none of that costs a timed request any processor time. The
// lists are per client because a shared counter would make the mix depend on
// timing.
//
// zfp:accuracy is not among the classes: its ratio curve is a staircase on
// which the search misses a reachable target about one time in twenty, by a
// margin no doubled tolerance covers, and frazd searches with one fixed
// seed, so a refused client cannot try another as the library workloads'
// callers do. mgard at double precision takes its place.
const (
	frazdClients   = 1
	replaysInBlock = 1
	downloadsBlock = 2
)

var frazdClasses = []class{szAbs, mgardAbs, szxAbs, szAbs64, mgardAbs64}

// frazdShapes are the three field sizes per precision: 0.5, 1 and 2 MiB.
var frazdShapes = map[bool][3][3]int{
	false: {{32, 64, 64}, {64, 64, 64}, {64, 64, 128}},
	true:  {{32, 32, 64}, {32, 64, 64}, {64, 64, 64}},
}

var frazdQuickShapes = map[bool][3][3]int{
	false: {{16, 32, 32}, {32, 32, 32}, {32, 32, 64}},
	true:  {{16, 16, 32}, {16, 32, 32}, {32, 32, 32}},
}

// upload is one field a client sent, and what came back.
type upload struct {
	class  class
	data   fieldgen.Data
	body   []byte
	target float64
	// id and sealed are set once the server answered 201.
	id     string
	sealed verify.Sealed
	// span is the upload's trace span and took its latency, for the
	// direct-call replay; rec is the index of its record in the client's
	// tally of the block.
	span, rec int
	took      time.Duration
}

// request is one entry of a client's list.
type request struct {
	kind string // "upload", "replay", "download"
	up   *upload
}

type frazdState struct {
	seed    uint64
	probe   *speedProbe
	shapes  map[bool][3][3]int
	srv     *server.Server
	http    *http.Server
	base    string
	served  chan struct{}
	clients []*frazdClient
}

type frazdClient struct {
	id   int
	http *http.Client
	// prev holds the uploads of the last finished block: what this block's
	// re-uploads and downloads refer to.
	prev []*upload
}

func setupFrazd(ctx context.Context, seed uint64, quick bool, sw *stopwatch) (runner, error) {
	st := &frazdState{seed: seed, probe: sw.p, shapes: frazdShapes, served: make(chan struct{})}
	if quick {
		st.shapes = frazdQuickShapes
	}
	if err := warmUp(ctx, frazdClasses); err != nil {
		return nil, err
	}
	sw.lap()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = server.New(server.Config{})
	st.http = &http.Server{Handler: st.srv.Handler()}
	st.base = "http://" + ln.Addr().String()
	go func() {
		defer close(st.served)
		_ = st.http.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	for c := 0; c < frazdClients; c++ {
		st.clients = append(st.clients, &frazdClient{id: c, http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}})
	}
	// Block 0, untimed: one upload per class and client. It is the first
	// request of each kind the server sees, and what block 1 re-uploads and
	// downloads.
	t := &tally{}
	st.block(ctx, 0, t, nil)
	if len(t.wrong) > 0 {
		st.close()
		return nil, fmt.Errorf("frazd-mixed: untimed block: %w", t.wrong[0])
	}
	// An untimed upload the server refused is only material block 1 lacks;
	// requests reports a client left with none.
	return st, nil
}

// close shuts the listener down and waits for the serve goroutine and the
// clients' connections to end.
func (st *frazdState) close() {
	for _, c := range st.clients {
		c.http.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.http.Shutdown(ctx) // on timeout the listener is closed all the same
	<-st.served
}

func (st *frazdState) run(ctx context.Context, budget time.Duration, ls *layerStats) (plain, traced *tally) {
	plain, traced = &tally{}, &tally{}
	var spent time.Duration
	if ls != nil {
		budget *= 2 // as in libState.run
	}
	for b := 1; spent < budget; b++ {
		t, rec := plain, (*layerStats)(nil)
		if ls != nil && b%2 == 1 {
			t, rec = traced, ls
		}
		before, start := len(t.ops), time.Now()
		st.block(ctx, b, t, rec)
		spent += roundCost(t.ops[before:], time.Since(start), frazdClients, ls != nil)
	}
	if ls != nil {
		// Two figures of the whole run, one sample each.
		cs := st.srv.CacheStats()
		if total := cs.Hits + cs.Misses; total > 0 {
			ls.add("server.cache_hit_frac", float64(cs.Hits)/float64(total))
		}
		rejected := 0
		for _, t := range []*tally{plain, traced} {
			for _, op := range t.ops {
				if op.rejected {
					rejected++
				}
			}
		}
		ls.add("server.rejected", float64(rejected))
	}
	return plain, traced
}

// block runs block b on every client: prepare (untimed, in parallel), the
// timed request lists (in parallel), then verification (untimed, in
// parallel) and, when traced, the direct-call replays (one at a time).
func (st *frazdState) block(ctx context.Context, b int, t *tally, ls *layerStats) {
	lists := make([][]request, len(st.clients))
	tallies := make([]*tally, len(st.clients))
	each := func(fn func(i int, c *frazdClient)) {
		var wg sync.WaitGroup
		for i, c := range st.clients {
			wg.Add(1)
			go func(i int, c *frazdClient) {
				defer wg.Done()
				fn(i, c)
			}(i, c)
		}
		wg.Wait()
	}
	errs := make([]error, len(st.clients))
	each(func(i int, c *frazdClient) { lists[i], errs[i] = st.requests(ctx, c, b) })
	for _, err := range errs {
		if err != nil {
			t.wrong = append(t.wrong, err)
			return
		}
	}
	runtime.GC()
	each(func(i int, c *frazdClient) {
		tallies[i] = &tally{}
		for k, r := range lists[i] {
			st.do(ctx, c, r, b*1000+i*100+k, tallies[i], ls)
		}
	})
	each(func(i int, c *frazdClient) {
		c.prev = c.prev[:0]
		for _, r := range lists[i] {
			if r.kind == "upload" && r.up.id != "" {
				st.verifyUpload(ctx, c, r.up, tallies[i])
				c.prev = append(c.prev, r.up)
			}
		}
	})
	for i := range st.clients {
		t.merge(tallies[i])
	}
	if ls == nil {
		return
	}
	// One direct call per class and client explains the uploads: the same
	// compression through fraz.Client with the server's options, alone on
	// the machine, and the layers beneath it.
	for i := range st.clients {
		seen := map[string]bool{}
		for _, r := range lists[i] {
			if r.kind != "upload" || r.up.id == "" || seen[r.up.class.name] {
				continue
			}
			seen[r.up.class.name] = true
			st.replayUpload(ctx, r.up, ls)
		}
	}
}

// requests builds client c's list for block b from the seed alone, and
// derives every new field's target. Block 0 is the set-up block: uploads
// only.
func (st *frazdState) requests(ctx context.Context, c *frazdClient, b int) ([]request, error) {
	var list []request
	for ci, cl := range frazdClasses {
		shape := st.shapes[cl.wide][(ci+b+c.id)%3]
		id := (b*frazdClients+c.id)*len(frazdClasses) + ci
		d := fieldgen.New(fieldSeed(st.seed, "frazd-mixed", id), shape, cl.wide)
		// Targets come from the two tighter bounds (the loosest makes the
		// one-worker searches long enough to cost the run a third of its
		// operations), and for szx, whose ratio curve is a staircase, from
		// the tightest.
		rel := relBounds[(ci+b)%2]
		if cl == szxAbs {
			rel = relBounds[0]
		}
		target, err := referenceRatio(ctx, cl, d, rel, 1)
		if err != nil {
			return nil, fmt.Errorf("frazd-mixed: reference seal for a %s field: %w", cl.name, err)
		}
		list = append(list, request{kind: "upload", up: &upload{class: cl, data: d, body: rawBytes(d), target: target}})
	}
	if b == 0 {
		return list, nil
	}
	if len(c.prev) == 0 {
		return nil, fmt.Errorf("frazd-mixed: client %d stored nothing in block %d to re-upload or download", c.id, b-1)
	}
	for q := 0; q < replaysInBlock; q++ {
		list = append(list, request{kind: "replay", up: c.prev[(b*7+3*q)%len(c.prev)]})
	}
	for q := 0; q < downloadsBlock; q++ {
		list = append(list, request{kind: "download", up: c.prev[(b*11+2*q+1)%len(c.prev)]})
	}
	// A seeded shuffle, so kinds interleave the same way on every run.
	h := fieldSeed(st.seed, "frazd-order", b*frazdClients+c.id)
	for i := len(list) - 1; i > 0; i-- {
		h = h*6364136223846793005 + 1442695040888963407
		j := int((h >> 33) % uint64(i+1))
		list[i], list[j] = list[j], list[i]
	}
	return list, nil
}

// rawBytes is the field as the little-endian body frazd expects.
func rawBytes(d fieldgen.Data) []byte {
	out := make([]byte, d.Bytes())
	if d.Wide() {
		for i, v := range d.F64 {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		return out
	}
	for i, v := range d.F32 {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

func shapeHeader(shape []int) string {
	parts := make([]string, len(shape))
	for i, e := range shape {
		parts[i] = strconv.Itoa(e)
	}
	return strings.Join(parts, "x")
}

// send builds and issues one request and reads the whole answer. relaxed
// asks for twice the default tolerance.
func (st *frazdState) send(ctx context.Context, c *frazdClient, r request, relaxed bool) (status int, header http.Header, body []byte, err error) {
	var req *http.Request
	if r.kind == "download" {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, st.base+"/v1/decompress?id="+r.up.id, nil)
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, st.base+"/v1/compress", bytes.NewReader(r.up.body))
	}
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("X-Fraz-Tenant", "client-"+strconv.Itoa(c.id))
	if r.kind != "download" {
		req.Header.Set("X-Fraz-Shape", shapeHeader(r.up.data.Shape))
		req.Header.Set("X-Fraz-Codec", r.up.class.codec)
		req.Header.Set("X-Fraz-Target", strconv.FormatFloat(r.up.target, 'g', -1, 64))
		req.Header.Set("X-Fraz-Store", "1")
		if r.up.class.wide {
			req.Header.Set("X-Fraz-DType", "float64")
		}
		if relaxed {
			req.Header.Set("X-Fraz-Tolerance", strconv.FormatFloat(2*fraz.DefaultTolerance, 'g', -1, 64))
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header, body, err
}

// do issues one request, times it from send to last body byte, and records
// it. An upload answered 422 — the search found no bound in the band — is
// sent once more with the tolerance doubled, the paper's advice to a user
// told a target is infeasible; both requests are inside the operation's
// latency, and the archive is still judged against the band first asked for.
// Anything but the expected 2xx in the end — a 429 or 503 included — is a
// failure.
func (st *frazdState) do(ctx context.Context, c *frazdClient, r request, op int, t *tally, ls *layerStats) {
	out := opRecord{kind: opCompress, round: op / 1000, class: r.up.class.name, raw: r.up.data.Bytes()}
	if r.kind == "download" {
		out.kind = opDecompress
	}
	var (
		status int
		header http.Header
		body   []byte
		err    error
	)
	before := st.probe.sample()
	span, took := ls.time("server."+r.kind, op, -1, func() {
		status, header, body, err = st.send(ctx, c, r, false)
		if err == nil && status == http.StatusUnprocessableEntity && r.kind != "download" {
			out.retries++
			status, header, body, err = st.send(ctx, c, r, true)
		}
	})
	out.timed, out.latency = took, scaled(took, before, st.probe.sample())
	defer func() { t.ops = append(t.ops, out) }()
	if err != nil {
		t.opError(fmt.Errorf("%s: %w", r.kind, err))
		return
	}
	want := http.StatusCreated
	if r.kind == "download" {
		want = http.StatusOK
	}
	if status != want {
		out.rejected = status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		out.infeasible = status == http.StatusUnprocessableEntity
		t.opError(fmt.Errorf("%s %s: HTTP %d: %s", r.kind, r.up.class.name, status, strings.TrimSpace(string(body))))
		return
	}

	if r.kind == "download" {
		if err := checkDownload(r.up, header, body); err != nil {
			t.wrong = append(t.wrong, fmt.Errorf("download of %s archive %s: %w", r.up.class.name, r.up.id, err))
			return
		}
		out.ok = true
		return
	}
	var ans struct {
		ID          string  `json:"id"`
		Bytes       int64   `json:"bytes"`
		Codec       string  `json:"codec"`
		Ratio       float64 `json:"ratio"`
		Bound       float64 `json:"bound"`
		Achieved    float64 `json:"achieved"`
		Evaluations int     `json:"evaluations"`
		CacheHits   int     `json:"cache_hits"`
	}
	if err := json.Unmarshal(body, &ans); err != nil || ans.ID == "" {
		t.wrong = append(t.wrong, fmt.Errorf("%s of a %s field: unreadable answer %q: %v", r.kind, r.up.class.name, body, err))
		return
	}
	sealed := verify.Sealed{Codec: ans.Codec, ErrorBound: ans.Bound, Ratio: ans.Ratio, Achieved: ans.Achieved, BytesWritten: ans.Bytes}
	out.stored, out.evals, out.hits = ans.Bytes, ans.Evaluations, ans.CacheHits
	req2 := verify.Request{Objective: "ratio", Target: r.up.target, Tolerance: fraz.DefaultTolerance}
	out.inBand = req2.InBand(ans.Ratio)
	if r.kind == "replay" {
		// The archive itself was verified when first uploaded; a re-upload
		// must name the same content-addressed archive.
		if ans.ID != r.up.id || sealed != r.up.sealed {
			t.wrong = append(t.wrong, fmt.Errorf("re-upload of a %s field: got archive %s %+v, first upload gave %s %+v",
				r.up.class.name, ans.ID, sealed, r.up.id, r.up.sealed))
			return
		}
		out.ok = true
		return
	}
	// A first upload is settled by verifyUpload, between blocks.
	r.up.id, r.up.sealed, r.up.span, r.up.took, r.up.rec = ans.ID, sealed, span, took, len(t.ops)
	out.ok = true
}

// checkDownload compares a downloaded field with the one uploaded.
func checkDownload(up *upload, h http.Header, body []byte) error {
	if len(body) != up.data.Bytes() {
		return fmt.Errorf("%d bytes, the field has %d", len(body), up.data.Bytes())
	}
	res := &fraz.DecompressResult{Shape: up.data.Shape, Codec: h.Get("X-Fraz-Codec"), DType: h.Get("X-Fraz-DType")}
	bound, err := strconv.ParseFloat(h.Get("X-Fraz-Bound"), 64)
	if err != nil {
		return fmt.Errorf("X-Fraz-Bound %q: %w", h.Get("X-Fraz-Bound"), err)
	}
	res.ErrorBound = bound
	if up.data.Wide() {
		res.Data64 = make([]float64, len(body)/8)
		for i := range res.Data64 {
			res.Data64[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
	} else {
		res.Data = make([]float32, len(body)/4)
		for i := range res.Data {
			res.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		}
	}
	_, err = verify.Decoded(up.data, res, 1)
	return err
}

// verifyUpload fetches the stored archive (untimed) and checks it in full.
// A failure turns the upload's record into a failed operation.
func (st *frazdState) verifyUpload(ctx context.Context, c *frazdClient, up *upload, t *tally) {
	fail := func(err error) {
		t.wrong = append(t.wrong, fmt.Errorf("upload of a %s field (archive %s): %w", up.class.name, up.id, err))
		t.ops[up.rec].ok = false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.base+"/v1/archives/"+up.id, nil)
	if err != nil {
		fail(err)
		return
	}
	resp, err := c.http.Do(req)
	if err != nil {
		fail(err)
		return
	}
	archive, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("fetching the archive: HTTP %d: %v", resp.StatusCode, err))
		return
	}
	req2 := verify.Request{Objective: "ratio", Target: up.target, Tolerance: fraz.DefaultTolerance}
	if _, err := verify.Archive(ctx, up.data, archive, up.sealed, req2); err != nil {
		fail(err)
	}
}

// replayUpload makes the call the handler made — fraz.Client with the
// server's options and an evaluation cache that has not seen the field —
// directly, with nothing else running, as a child span of the upload; the
// layers beneath it are then replayed as for a library call. The upload's
// self time is what HTTP, admission, the store and sharing the machine with
// the other client cost.
func (st *frazdState) replayUpload(ctx context.Context, up *upload, ls *layerStats) {
	var buf bytes.Buffer
	buf.Grow(up.data.Bytes() / 2)
	var res *fraz.CompressResult
	var err error
	mem := ls.memBefore()
	span, took := ls.time("fraz.compress", up.span, up.span, func() {
		var c *fraz.Client
		if c, err = fraz.New(up.class.codec, fraz.Ratio(up.target), fraz.Workers(1), fraz.Seed(1),
			fraz.SharedCache(fraz.NewEvalCache(0))); err == nil {
			res, err = compressData(ctx, c, &buf, up.data)
		}
	})
	ls.memAfter(mem)
	if err != nil {
		ls.add("replay.errors", 1)
		fmt.Println("replay:", err)
		return
	}
	for _, s := range ls.rec.Spans() {
		if s.ID == up.span {
			ls.add("server.overhead_ms", (s.Duration()-took).Seconds()*1e3)
		}
	}
	ls.replayCompress(ctx, replay{
		op: up.span, parent: span, res: res, archive: buf.Bytes(), objective: "ratio", workers: 1,
		job: job{class: up.class, data: up.data, seed: 1,
			req: verify.Request{Objective: "ratio", Target: up.target, Tolerance: fraz.DefaultTolerance}},
	})
}
