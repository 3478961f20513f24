package main

import "encoding/json"

// runSeconds is the measuring time BENCHMARK.json asks the driver to pass as
// -seconds. With three set-ups, the speed probes and the untimed preparation
// and verification a run then takes 24 to 30 s of wall-clock time (a traced
// run about 50 s), so the driver's 92 runs and two builds take about 2700 s
// of its 3420 s on this machine at its slowest.
const runSeconds = 18

// describe returns BENCHMARK.json as this program defines it: the command,
// the workloads and every metric. The file at the repository root is this
// output, and a test holds the two together.
func describe() ([]byte, error) {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range layerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	return json.MarshalIndent(doc, "", "  ")
}
