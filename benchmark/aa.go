package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"fraz/benchmark/stats"
)

// e2eMetric declares one end-to-end metric as BENCHMARK.json lists it.
// bound is the share of the parent commit's median by which the metric may
// get worse before a change is rejected; a run-to-run spread wider than the
// bound means the metric cannot resolve such a change.
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

var endToEndMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"compress_mbps", "MB/s", "higher", 0.25},
	{"compress_p50_ms", "ms", "lower", 0.25},
	{"decompress_mbps", "MB/s", "higher", 0.25},
	{"stored_frac", "frac", "lower", 0.12},
	{"ok_frac", "frac", "higher", 0.01},
	{"in_band_frac", "frac", "higher", 0.15},
}

// runAA runs every workload n times, each time in a process of its own and
// with another seed (seed, seed+1, …) — the way the driver measures — and
// prints, per workload and end-to-end metric, the median, the quartiles, the
// spread (quartile distance over median) and the worst gap between any two
// runs, against the metric's bound. It returns a non-zero exit code when a
// run fails or a spread (setup_s aside, as in the driver's rule) exceeds its
// bound.
func runAA(n int, seed uint64, seconds float64) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -aa needs at least 2 runs")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			var res result
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); err != nil || jerr != nil {
				fmt.Printf("%s seed %d: run failed: %v %v\n", w.name, seed+uint64(i), err, jerr)
				code = 1
				continue
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Printf("%s seed %d: correct=%v, %d of %d operations failed\n", w.name, seed+uint64(i), res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d\n  %-16s %12s %12s %12s %8s %8s %6s\n", w.name, n, seed, seed+uint64(n)-1,
			"metric", "median", "q1", "q3", "spread", "max gap", "bound")
		for _, m := range endToEndMetrics {
			xs := values[m.name]
			q1, q2, q3, err := stats.Quartiles(xs)
			if err != nil {
				fmt.Printf("  %-16s %v\n", m.name, err)
				code = 1
				continue
			}
			spread := (q3 - q1) / q2
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			verdict := ""
			if spread > m.bound && m.name != "setup_s" {
				verdict = "  SPREAD EXCEEDS BOUND"
				code = 1
			} else if spread > m.bound/3 {
				verdict = "  (above a third of the bound)"
			}
			fmt.Printf("  %-16s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %5.0f%%%s\n",
				m.name, q2, q1, q3, 100*spread, 100*(hi-lo)/q2, 100*m.bound, verdict)
		}
	}
	return code
}
