// Command benchmark is the repository's benchmark: four workloads over the
// stack codec kernel → seal/open → tuner → fraz.Client → frazd, seven
// end-to-end metrics a user of the library or the service would see, and a
// separately run layer trace. README.md in this directory says why each
// workload exists and how every metric is defined; BENCHMARK.json at the
// repository root is the contract the numbers are judged by.
//
//	go -C benchmark run . -workload ratio-search -seed 1 -seconds 16
//	go -C benchmark run . -workload ratio-search -seed 1 -seconds 16 -trace 1
//	go -C benchmark run . -aa 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fraz/benchmark/stats"
)

// setupRepeats is how many times a run sets up; setup_s is the median, which
// drops the first repeat's cold start.
const setupRepeats = 3

// procs is the GOMAXPROCS every workload runs with. One: a searching or
// sealing call that spreads over both of a small machine's processors is as
// slow as the slower of them, each of which another tenant's work slows at
// its own times (see probe.go), and two goroutines racing through a search
// make the work itself depend on their timing (ROADMAP 1a). On one processor
// the same seed does the same work every time, the speed probe sees the
// processor the operation ran on, and the other processor is left to the
// runtime's and the system's background work. What is given up is the
// speed-up of internal/parallel and of blocked seals, which two shared
// hardware threads cannot measure steadily anyway.
const procs = 1

// workload is one entry of the benchmark.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	// clients is the number of concurrent closed-loop callers.
	clients int
	// setup builds the run's state, calling sw.lap between its stages; run
	// measures it for the budget, tracing alternate rounds when ls is not
	// nil, and returns the operations of the untraced and the traced rounds.
	setup func(ctx context.Context, seed uint64, quick bool, sw *stopwatch) (runner, error)
}

// runner is a workload's state after set-up.
type runner interface {
	run(ctx context.Context, budget time.Duration, ls *layerStats) (plain, traced *tally)
	// close releases what set-up started (the frazd listener).
	close()
}

func (st *libState) close() {}

func libEntry(w *libWorkload, why string) workload {
	return workload{name: w.name, why: why, clients: 1,
		setup: func(ctx context.Context, seed uint64, quick bool, sw *stopwatch) (runner, error) {
			return w.setup(ctx, seed, quick, sw)
		}}
}

// workloads, in the order the driver runs them. series-reuse is first because
// it is the steadiest: whatever a machine is still busy with when the first
// runs start disturbs it least.
var workloads = []workload{
	libEntry(&libWorkload{
		name: "series-reuse", shape: [3]int{32, 256, 256}, quickShape: [3]int{16, 64, 64},
		classes:   []class{szAbs, zfpAcc, mgardAbs, szxAbs64, frszRate},
		objective: "ratio", series: true, decodes: 1,
	}, "time-step bound reuse on 8-16 MiB fields: kernels, blocked seal/open and the container do the work, the tuner little"),
	libEntry(&libWorkload{
		name: "ratio-search", shape: [3]int{64, 64, 64}, quickShape: [3]int{24, 24, 24},
		classes:   []class{szAbs, zfpAcc, mgardAbs, szxAbs, szAbs64},
		objective: "ratio", fields: 18, decodes: 4,
	}, "cold fixed-ratio tune+seal, the paper's core case: the tuner and the kernel calls it makes do nearly all the work"),
	libEntry(&libWorkload{
		name: "psnr-search", shape: [3]int{24, 24, 24}, quickShape: [3]int{16, 16, 16},
		classes:   []class{szAbs, zfpAcc, szxAbs},
		objective: "psnr", fields: 6, decodes: 40,
	}, "cold fixed-PSNR tune+seal: every evaluation is compress + decompress + quality report, and the seal is monolithic"),
	{name: "frazd-mixed", clients: frazdClients, setup: setupFrazd,
		why: "frazd on loopback, a closed-loop client mixing new uploads, re-uploads and downloads on one store and one evaluation cache"},
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", runSeconds, "caller time to measure")
		traced  = flag.Int("trace", 0, "1 = traced run: per-layer metrics, share table and a span file")
		out     = flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-<seed>.json)")
		quick   = flag.Bool("quick", false, "small fields, for tests: the numbers mean nothing")
		aa      = flag.Int("aa", 0, "run every workload N times, each with another seed, and check every spread against its bound")
		desc    = flag.Bool("describe", false, "print BENCHMARK.json as this program defines it")
	)
	flag.Parse()
	if *desc {
		doc, err := describe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		fmt.Println(string(doc))
		return
	}
	if *aa > 0 {
		os.Exit(runAA(*aa, *seed, *seconds))
	}
	res, err := runWorkload(context.Background(), *name, *seed, *seconds, *traced != 0, *quick, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runWorkload sets up (setupRepeats times), measures, verifies and reports
// one workload, on one processor: see procs.
func runWorkload(ctx context.Context, name string, seed uint64, seconds float64, traced, quick bool, traceOut string) (*result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	if !(seconds > 0) {
		return nil, fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	runtime.GOMAXPROCS(procs)
	probe := newSpeedProbe()

	var st runner
	setups := make([]float64, 0, setupRepeats)
	rawSetups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		st = nil
		runtime.GC()
		sw := probe.stopwatch()
		if st, err = w.setup(ctx, seed, quick, sw); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sw.lap()
		setups = append(setups, sw.scaled.Seconds())
		rawSetups = append(rawSetups, sw.raw.Seconds())
	}
	defer st.close()
	setupS, _ := stats.Median(setups)

	var ls *layerStats
	if traced {
		ls = newLayerStats()
	}
	plain, tracedOps := st.run(ctx, time.Duration(seconds*float64(time.Second)), ls)

	all := &tally{}
	all.merge(plain)
	all.merge(tracedOps)
	res := &result{Correct: len(all.wrong) == 0, Attempted: len(all.ops), Failed: all.failed()}
	fmt.Printf("workload %s seed %d: %d operations in %.2f s of caller time (%d callers), GOMAXPROCS %d, set-ups %.3v s as timed\n",
		name, seed, len(all.ops), callerTime(all.ops).Seconds()/float64(w.clients), w.clients, procs, rawSetups)
	fmt.Printf("speed probe: %d samples, on average %.3f of its undisturbed time (%v); timing metrics are scaled to that time\n",
		len(probe.samples), probe.slowdown(), probeNominal)
	for _, e := range all.wrong {
		fmt.Println("WRONG OUTPUT:", e)
	}
	msgs := make([]string, 0, len(all.errs))
	for msg := range all.errs {
		msgs = append(msgs, msg)
	}
	sort.Strings(msgs)
	for _, msg := range msgs {
		fmt.Printf("operation error ×%d: %s\n", all.errs[msg], msg)
	}

	all.printClasses(os.Stdout)
	if !traced {
		if res.Metrics, err = plain.endToEnd(setupS, w.clients); err != nil {
			return nil, err
		}
		printMetrics(os.Stdout, "end-to-end metrics", res.Metrics)
		rawSetupS, _ := stats.Median(rawSetups)
		if timed, err := plain.asTimed().endToEnd(rawSetupS, w.clients); err == nil {
			raw := map[string]metric{}
			for _, name := range timingMetrics {
				raw[name] = timed[name]
			}
			printMetrics(os.Stdout, "the timing metrics as timed, unscaled", raw)
		}
		return res, nil
	}
	ls.replayOptim()
	ls.add("machine.slowdown", probe.slowdown())
	plainP50 := 0.0
	if e2e, err := plain.endToEnd(setupS, w.clients); err == nil {
		plainP50 = e2e["compress_p50_ms"].Value
	}
	res.Metrics = ls.finish(tracedOps, plainP50)
	printMetrics(os.Stdout, "per-layer metrics (0 = layer not on this workload's path, or too few samples)", res.Metrics)
	fmt.Print(ls.shareTable())
	if traceOut == "" {
		traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", name, seed))
	}
	if err := writeTrace(traceOut, name, seed, ls); err != nil {
		return nil, err
	}
	fmt.Println("spans written to", traceOut)
	return res, nil
}

// writeTrace writes the spans with the facts needed to read them later.
func writeTrace(path, name string, seed uint64, ls *layerStats) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string         `json:"workload"`
		Seed     uint64         `json:"seed"`
		Machine  machineFacts   `json:"machine"`
		Spans    any            `json:"spans"`
		Samples  map[string]int `json:"sample_counts"`
	}{Workload: name, Seed: seed, Machine: machine(), Spans: ls.rec.Spans(), Samples: map[string]int{}}
	for k, v := range ls.samples {
		doc.Samples[k] = len(v)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
