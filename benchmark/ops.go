package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"fraz"
	"fraz/benchmark/fieldgen"
	"fraz/benchmark/stats"
)

// class is one kind of compress operation: a codec at a precision. Every
// workload weights its classes equally, and uses an odd number of them, so
// the median latency falls inside one class, not in the gap between two.
type class struct {
	name  string
	codec string
	wide  bool
}

var (
	szAbs      = class{"sz:abs", "sz:abs", false}
	zfpAcc     = class{"zfp:accuracy", "zfp:accuracy", false}
	mgardAbs   = class{"mgard:abs", "mgard:abs", false}
	szxAbs     = class{"szx:abs", "szx:abs", false}
	szAbs64    = class{"sz:abs-f64", "sz:abs", true}
	szxAbs64   = class{"szx:abs-f64", "szx:abs", true}
	mgardAbs64 = class{"mgard:abs-f64", "mgard:abs", true}
	frszRate   = class{"frsz:rate", "frsz:rate", false}
)

// relBounds are the error bounds, as shares of a field's value range, whose
// achieved ratio (or PSNR) becomes an operation's target: tight, medium and
// loose. A target made this way is reachable by construction — the bound
// that produced it exists.
var relBounds = [3]float64{1e-2, 3e-2, 1e-1}

// opKind separates the two operations users wait for.
type opKind int

const (
	opCompress opKind = iota
	opDecompress
)

// opRecord is one attempted operation.
type opRecord struct {
	kind opKind
	// round is the balanced round (or frazd block) the operation belongs to.
	round  int
	class  string
	raw    int   // uncompressed bytes
	stored int64 // archive bytes written (compress only)
	// timed is how long the caller waited; latency is timed scaled to an
	// undisturbed processor by the speed probes around the operation, and
	// what every timing metric is made of.
	timed, latency time.Duration
	// ok: the call returned no error and its output verified.
	ok bool
	// inBand (compress only): the sealed archive's recorded value lies in
	// the requested band.
	inBand bool
	// What the compress call said about its search.
	evals, hits       int
	direct, predicted bool
	infeasible        bool
	// rejected (frazd only): the server answered 429 or 503.
	rejected bool
	// retries counts the attempts that ended in ErrInfeasible before the
	// one that settled the operation.
	retries int
}

// tally collects a run's operations and what went wrong in them.
type tally struct {
	ops []opRecord
	// wrong holds verification failures: outputs that are not what the
	// program said they were. Any entry makes the run incorrect.
	wrong []error
	// errs counts operations that returned an error, by message.
	errs map[string]int
}

func (t *tally) countError(msg string, n int) {
	if t.errs == nil {
		t.errs = map[string]int{}
	}
	t.errs[msg] += n
}

func (t *tally) opError(err error) {
	msg := err.Error()
	if len(msg) > 160 {
		msg = msg[:160] + "…"
	}
	t.countError(msg, 1)
}

func (t *tally) merge(o *tally) {
	t.ops = append(t.ops, o.ops...)
	t.wrong = append(t.wrong, o.wrong...)
	for msg, n := range o.errs {
		t.countError(msg, n)
	}
}

func (t *tally) failed() int {
	n := 0
	for _, op := range t.ops {
		if !op.ok {
			n++
		}
	}
	return n
}

// callerTime is how long the callers waited for the operations, as timed:
// what a run's budget is spent on.
func callerTime(ops []opRecord) time.Duration {
	var d time.Duration
	for _, op := range ops {
		d += op.timed
	}
	return d
}

// timingMetrics are the end-to-end metrics made of times, which the speed
// probe scales; the others are counts and sizes.
var timingMetrics = []string{"setup_s", "compress_mbps", "compress_p50_ms", "decompress_mbps"}

// asTimed is the tally with every latency as it was timed, unscaled.
func (t *tally) asTimed() *tally {
	out := &tally{ops: append([]opRecord(nil), t.ops...)}
	for i := range out.ops {
		out.ops[i].latency = out.ops[i].timed
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind the value, printed in the table.
	n int
}

// endToEnd computes the seven end-to-end metrics from the operations of a
// run; clients is the number of concurrent closed-loop callers.
func (t *tally) endToEnd(setupSeconds float64, clients int) (map[string]metric, error) {
	var comp, decomp []stats.Op
	var raw, stored float64
	okOps, inBand := 0, 0
	for _, op := range t.ops {
		s := stats.Op{Bytes: op.raw, Latency: op.latency, OK: op.ok}
		if op.ok {
			okOps++
		}
		if op.kind == opDecompress {
			decomp = append(decomp, s)
			continue
		}
		comp = append(comp, s)
		if op.inBand {
			inBand++
		}
		if op.ok {
			raw += float64(op.raw)
			stored += float64(op.stored)
		}
	}
	compMBps, err := stats.MBps(comp, clients)
	if err != nil {
		return nil, fmt.Errorf("compress_mbps: %w", err)
	}
	decompMBps, err := stats.MBps(decomp, clients)
	if err != nil {
		return nil, fmt.Errorf("decompress_mbps: %w", err)
	}
	p50, err := t.compressP50()
	if err != nil {
		return nil, fmt.Errorf("compress_p50_ms: %w", err)
	}
	if raw == 0 {
		return nil, errors.New("stored_frac: no compress operation succeeded")
	}
	return map[string]metric{
		"setup_s":         {Value: setupSeconds, Unit: "s", n: setupRepeats},
		"compress_mbps":   {Value: compMBps, Unit: "MB/s", n: len(comp)},
		"compress_p50_ms": {Value: p50, Unit: "ms", n: len(comp)},
		"decompress_mbps": {Value: decompMBps, Unit: "MB/s", n: len(decomp)},
		"stored_frac":     {Value: stored / raw, Unit: "frac", n: len(comp)},
		"ok_frac":         {Value: float64(okOps) / float64(len(t.ops)), Unit: "frac", n: len(t.ops)},
		"in_band_frac":    {Value: float64(inBand) / float64(len(comp)), Unit: "frac", n: len(comp)},
	}, nil
}

// compressP50 is the median over the classes of each class's median compress
// latency, in milliseconds. Classes have equal weight and their number is
// odd, so this is the median of one class — the per-class table shows which.
// The median of all operations pooled would fall between two classes'
// clusters, where a few operations changing sides move it by a fifth.
func (t *tally) compressP50() (float64, error) {
	byClass := map[string][]float64{}
	for _, op := range t.ops {
		if op.kind == opCompress {
			byClass[op.class] = append(byClass[op.class], op.latency.Seconds()*1e3)
		}
	}
	medians := make([]float64, 0, len(byClass))
	for _, lat := range byClass {
		m, _ := stats.Median(lat) // a class in the map has an operation
		medians = append(medians, m)
	}
	return stats.Median(medians)
}

// printMetrics writes the metrics as a name / value / unit / n table.
func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n", title)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.n)
	}
}

// compressData routes a field to the client's entry point for its width.
func compressData(ctx context.Context, c *fraz.Client, w io.Writer, d fieldgen.Data) (*fraz.CompressResult, error) {
	if d.Wide() {
		return c.Compress64(ctx, w, d.F64, d.Shape)
	}
	return c.Compress(ctx, w, d.F32, d.Shape)
}

// searchFields copies what a compress call said about its search.
func (r *opRecord) searchFields(res *fraz.CompressResult) {
	r.evals, r.hits = res.Evaluations, res.CacheHits
	r.direct, r.predicted = res.Direct, res.UsedPrediction
}

// printClasses breaks the compress operations down by class: the table that
// shows which class the median sits in and where failures and band misses
// come from.
func (t *tally) printClasses(w io.Writer) {
	type row struct {
		lat               []float64
		evals, ok, inBand int
	}
	rows := map[string]*row{}
	var names []string
	for _, op := range t.ops {
		if op.kind != opCompress {
			continue
		}
		r := rows[op.class]
		if r == nil {
			r = &row{}
			rows[op.class] = r
			names = append(names, op.class)
		}
		r.lat = append(r.lat, op.latency.Seconds()*1e3)
		r.evals += op.evals
		if op.ok {
			r.ok++
		}
		if op.inBand {
			r.inBand++
		}
	}
	fmt.Fprintf(w, "compress operations by class\n  %-14s %5s %10s %10s %10s %6s %8s\n", "class", "n", "p50 ms", "min ms", "max ms", "ok", "in band")
	for _, name := range names {
		r := rows[name]
		p50, _ := stats.Median(r.lat)
		sort.Float64s(r.lat)
		fmt.Fprintf(w, "  %-14s %5d %10.2f %10.2f %10.2f %6d %8d   %.1f evaluations/op\n",
			name, len(r.lat), p50, r.lat[0], r.lat[len(r.lat)-1], r.ok, r.inBand, float64(r.evals)/float64(len(r.lat)))
	}
}
