package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Every workload runs end to end on tiny fields: set-up, the timed
// operations, verification of every output, and the result object the
// driver reads. The numbers mean nothing at this size; the plumbing is what
// is tested.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(context.Background(), w.name, 3, 0.05, false, true, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 8 {
			t.Errorf("%s: correct=%v attempted=%d", w.name, res.Correct, res.Attempted)
		}
		if len(res.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", w.name, len(res.Metrics), len(endToEndMetrics))
		}
		for _, m := range endToEndMetrics {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || !(got.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.name, m.name, got, ok, m.unit)
			}
		}
	}
}

func TestTracedRunQuick(t *testing.T) {
	for _, name := range []string{"psnr-search", "series-reuse", "frazd-mixed"} {
		out := filepath.Join(t.TempDir(), "trace.json")
		res, err := runWorkload(context.Background(), name, 3, 0.05, true, true, out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: outputs did not verify", name)
		}
		if len(res.Metrics) != len(layerMetrics) {
			t.Errorf("%s: %d metrics, want the %d per-layer ones", name, len(res.Metrics), len(layerMetrics))
		}
		for _, want := range []string{"core.tune_ms", "pressio.seal_ms", "kernel.compress_mbps", "fraz.compress_ms"} {
			if !(res.Metrics[want].Value > 0) {
				t.Errorf("%s: %s = %v, want a measurement", name, want, res.Metrics[want].Value)
			}
		}
		if onPath := name == "frazd-mixed"; (res.Metrics["server.upload_ms"].Value > 0) != onPath {
			t.Errorf("%s: server.upload_ms = %v", name, res.Metrics["server.upload_ms"].Value)
		}
		if onPath := name == "psnr-search"; (res.Metrics["metrics.report_ms"].Value > 0) != onPath {
			t.Errorf("%s: metrics.report_ms = %v", name, res.Metrics["metrics.report_ms"].Value)
		}
		var doc struct {
			Workload string
			Machine  machineFacts
			Spans    []struct{ Name string }
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Workload != name || len(doc.Spans) == 0 || doc.Machine.GoVersion == "" || doc.Machine.GOMAXPROCS == 0 {
			t.Errorf("%s: trace file has workload %q, %d spans, machine %+v", name, doc.Workload, len(doc.Spans), doc.Machine)
		}
	}
}

// A wrong output — here a compress result whose archive is then corrupted —
// makes the run incorrect, and a failed operation is counted as failed.
func TestFailuresAreCounted(t *testing.T) {
	tl := &tally{}
	tl.ops = []opRecord{
		{kind: opCompress, raw: 100, stored: 10, latency: 1e6, ok: true, inBand: true},
		{kind: opCompress, raw: 100, latency: 3e6, ok: false},
		{kind: opDecompress, raw: 100, latency: 1e6, ok: true},
	}
	if tl.failed() != 1 {
		t.Errorf("failed = %d, want 1", tl.failed())
	}
	ms, err := tl.endToEnd(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"ok_frac":         2.0 / 3,
		"in_band_frac":    0.5,
		"stored_frac":     0.1,   // the failed operation stored nothing and is not counted
		"compress_mbps":   0.025, // 100 bytes of success over 4 ms of attempts
		"compress_p50_ms": 2,
	} {
		if got := ms[name].Value; got < want*0.999999 || got > want*1.000001 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// BENCHMARK.json at the repository root is what -describe prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Error("BENCHMARK.json differs from `go -C benchmark run . -describe`; regenerate it")
	}
	largest := 0.0
	for _, m := range endToEndMetrics {
		if m.bound > largest {
			largest = m.bound
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	if endToEndMetrics[0].name != "setup_s" || endToEndMetrics[0].bound != largest {
		t.Error("setup_s must be listed and have the largest bound")
	}
}
