package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"fraz"
	"fraz/benchmark/fieldgen"
	"fraz/benchmark/verify"
)

// libWorkload is one of the three workloads that call fraz.Client directly:
// one caller, closed loop, every fraz option but the target at its default.
type libWorkload struct {
	name  string
	shape [3]int
	// quickShape replaces shape under -quick.
	quickShape [3]int
	classes    []class
	objective  string // "ratio" or "psnr"
	// series selects the time-series form: one long-lived client per class,
	// each compressing the next step of its own evolving field, with bound
	// reuse on. Otherwise every operation is cold: a fresh client, reuse off,
	// on a field drawn from a fixed pool.
	series bool
	// fields is the pool size per precision of a cold workload; a multiple
	// of len(relBounds), because field j is always tuned to relBounds[j%3].
	fields int
	// decodes is how many timed decompressions follow each compress, sized
	// so that decompression is a sixth to a quarter of the measured time.
	decodes int
}

// job is one compress operation of a round, with everything needed to run,
// verify and replay it.
type job struct {
	class class
	data  fieldgen.Data
	req   verify.Request
	// client returns the client for the given attempt; it runs inside the
	// timed region, because a one-shot caller pays for building it.
	client func(attempt int) (*fraz.Client, error)
	// attempts is how often the caller tries: see compress.
	attempts int
	// seed and prediction are what the client's tuner starts from, for the
	// layer replay.
	seed       int64
	prediction float64
	// done, if set, is told the result, so a series can carry its bound
	// forward.
	done func(*fraz.CompressResult)
}

// libState is what set-up leaves behind.
type libState struct {
	w     *libWorkload
	shape [3]int
	probe *speedProbe
	// cold workloads: a field pool per precision and a target per
	// (class, field).
	pool    map[bool][]fieldgen.Data
	targets map[string][]float64
	// series workloads: one entry per class.
	series []*seriesState
}

type seriesState struct {
	class     class
	gen       *fieldgen.Series
	step      fieldgen.Data
	client    *fraz.Client
	req       verify.Request
	lastBound float64
}

func (w *libWorkload) tolerance() float64 {
	if w.objective == "psnr" {
		return 0.05 // fraz's default PSNR band
	}
	return fraz.DefaultTolerance
}

func (w *libWorkload) targetOption(target float64) fraz.Option {
	if w.objective == "psnr" {
		return fraz.TargetPSNR(target)
	}
	return fraz.Ratio(target)
}

// referenceRatio seals d at the bound rel·range in the given number of
// blocks and returns the ratio that archive achieved: a target a search is
// then asked to find its own way to.
func referenceRatio(ctx context.Context, cl class, d fieldgen.Data, rel float64, blocks int) (float64, error) {
	res, _, err := referenceSeal(ctx, cl, d, rel, blocks)
	if err != nil {
		return 0, err
	}
	return res.Ratio, nil
}

func referenceSeal(ctx context.Context, cl class, d fieldgen.Data, rel float64, blocks int) (*fraz.CompressResult, *bytes.Buffer, error) {
	var buf bytes.Buffer
	c, err := fraz.New(cl.codec, fraz.FixedBound(rel*d.Range()), fraz.Blocks(blocks))
	if err != nil {
		return nil, nil, err
	}
	res, err := compressData(ctx, c, &buf, d)
	return res, &buf, err
}

// referencePSNR is referenceRatio for the PSNR objective: the PSNR of the
// reference archive's reconstruction.
func referencePSNR(ctx context.Context, cl class, d fieldgen.Data, rel float64) (float64, error) {
	_, buf, err := referenceSeal(ctx, cl, d, rel, 1)
	if err != nil {
		return 0, err
	}
	dec, err := fraz.DecompressFull(ctx, buf)
	if err != nil {
		return 0, err
	}
	if d.Wide() {
		return fraz.FixedPSNR(1).Measure64(d.F64, dec.Data64, d.Shape, dec.CompressedBytes)
	}
	return fraz.FixedPSNR(1).Measure(d.F32, dec.Data, d.Shape, dec.CompressedBytes)
}

// setup generates the inputs, derives every target and runs one untimed
// operation per class. Each stage is a lap of sw.
func (w *libWorkload) setup(ctx context.Context, seed uint64, quick bool, sw *stopwatch) (*libState, error) {
	st := &libState{w: w, shape: w.shape, probe: sw.p}
	if quick {
		st.shape = w.quickShape
	}
	if err := warmUp(ctx, w.classes); err != nil {
		return nil, err
	}
	sw.lap()
	if w.series {
		for i, cl := range w.classes {
			s := &seriesState{class: cl, gen: fieldgen.NewSeries(fieldSeed(seed, w.name, i), st.shape, cl.wide)}
			s.step = fieldgen.Like(s.gen.Base)
			sw.lap()
			s.req = verify.Request{Objective: "ratio", Target: 4, Tolerance: w.tolerance()}
			if cl != frszRate {
				// The bandwidth-regime fields are sealed in blocks, so the
				// reference seal is too: its ratio is one a blocked archive
				// reaches.
				t, err := referenceRatio(ctx, cl, s.gen.Base, relBounds[i%len(relBounds)], 0)
				if err != nil {
					return nil, fmt.Errorf("%s: reference seal for %s: %w", w.name, cl.name, err)
				}
				s.req.Target = t
			}
			// Step 0, untimed, gives the client the bound its first timed
			// step starts from. The search can miss a reachable target (see
			// compress); a series that starts that way is started again with
			// a client on the next seed.
			s.gen.Step(s.step, 0)
			first := job{data: s.step, attempts: maxAttempts, client: func(attempt int) (c *fraz.Client, err error) {
				s.client, err = fraz.New(cl.codec, fraz.Ratio(s.req.Target), fraz.Seed(int64(attempt)))
				return s.client, err
			}}
			res, _, err := first.compress(ctx, &bytes.Buffer{})
			if err != nil {
				return nil, fmt.Errorf("%s: untimed step 0 of the %s series: %w", w.name, cl.name, err)
			}
			s.lastBound = res.ErrorBound
			st.series = append(st.series, s)
			sw.lap()
		}
		return st, nil
	}

	st.pool = map[bool][]fieldgen.Data{}
	st.targets = map[string][]float64{}
	for _, cl := range w.classes {
		if st.pool[cl.wide] == nil {
			for j := 0; j < w.fields; j++ {
				id := j
				if cl.wide {
					id += w.fields
				}
				st.pool[cl.wide] = append(st.pool[cl.wide], fieldgen.New(fieldSeed(seed, w.name, id), st.shape, cl.wide))
			}
		}
		for j, d := range st.pool[cl.wide] {
			var t float64
			var err error
			if w.objective == "psnr" {
				t, err = referencePSNR(ctx, cl, d, relBounds[j%len(relBounds)])
			} else {
				t, err = referenceRatio(ctx, cl, d, relBounds[j%len(relBounds)], 1)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: reference seal for %s field %d: %w", w.name, cl.name, j, err)
			}
			st.targets[cl.name] = append(st.targets[cl.name], t)
		}
		sw.lap()
	}
	// One untimed operation per class, so no timed operation is the first of
	// its kind.
	for _, j := range st.round(0)[:len(w.classes)] {
		if _, _, err := j.compress(ctx, &bytes.Buffer{}); err != nil {
			return nil, fmt.Errorf("%s: untimed %s operation: %w", w.name, j.class.name, err)
		}
	}
	return st, nil
}

// fieldSeed derives the generator seed of the id-th field of a workload.
func fieldSeed(seed uint64, workload string, id int) uint64 {
	h := seed*0x9e3779b97f4a7c15 + uint64(id)*0xd1342543de82ef95
	for _, b := range []byte(workload) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return h
}

// warmUp compresses and decompresses one 1 MiB field per class, so that
// pools, tables and lazily built state exist before anything is timed.
func warmUp(ctx context.Context, classes []class) error {
	var buf bytes.Buffer
	for _, cl := range classes {
		shape := [3]int{64, 64, 64}
		if cl.wide {
			shape[0] = 32
		}
		d := fieldgen.New(1, shape, cl.wide)
		bound := 1e-2 * d.Range()
		if cl == frszRate {
			bound = 8 // bits per value
		}
		c, err := fraz.New(cl.codec, fraz.FixedBound(bound))
		if err != nil {
			return err
		}
		if _, err := compressData(ctx, c, &buf, d); err != nil {
			return fmt.Errorf("warm-up %s: %w", cl.name, err)
		}
		if _, err := fraz.DecompressFull(ctx, &buf); err != nil {
			return fmt.Errorf("warm-up %s: %w", cl.name, err)
		}
		buf.Reset()
	}
	return nil
}

// maxAttempts is how often a cold caller tries before giving up, and
// retrySeedStep what it adds to the search seed each time.
const (
	maxAttempts   = 3
	retrySeedStep = 1000003
)

// compress is the caller's side of one compress operation. The search can
// miss a target that a bound provably reaches — on zfp:accuracy's staircase
// ratio curve it does so about one time in twenty — and reports that as
// ErrInfeasible; a caller who needs the archive then tries again with
// another search seed, up to the job's attempts. Every attempt is inside the
// operation's latency; retries counts the failed ones.
func (j job) compress(ctx context.Context, w *bytes.Buffer) (res *fraz.CompressResult, retries int, err error) {
	for attempt := 0; ; attempt++ {
		var c *fraz.Client
		if c, err = j.client(attempt); err != nil {
			return nil, retries, err
		}
		res, err = compressData(ctx, c, w, j.data)
		if !errors.Is(err, fraz.ErrInfeasible) || attempt+1 >= j.attempts {
			return res, retries, err
		}
		retries++
	}
}

// round returns the k-th balanced batch of jobs. A cold round is every class
// at each of the three bounds (on three consecutive pool fields); a series
// round is the next step of every series (step 0 is set-up's).
func (st *libState) round(k int) []job {
	w := st.w
	if w.series {
		jobs := make([]job, 0, len(st.series))
		for _, s := range st.series {
			s := s
			s.gen.Step(s.step, k)
			jobs = append(jobs, job{
				class: s.class, data: s.step, req: s.req,
				client:     func(int) (*fraz.Client, error) { return s.client, nil },
				attempts:   1,
				prediction: s.lastBound,
				done:       func(res *fraz.CompressResult) { s.lastBound = res.ErrorBound },
			})
		}
		return jobs
	}
	jobs := make([]job, 0, len(relBounds)*len(w.classes))
	for b := range relBounds {
		j := (k*len(relBounds) + b) % w.fields
		for _, cl := range w.classes {
			cl := cl
			op := int64(len(jobs)) + int64(k)*int64(cap(jobs))
			target := st.targets[cl.name][j]
			jobs = append(jobs, job{
				class: cl, data: st.pool[cl.wide][j],
				req:      verify.Request{Objective: w.objective, Target: target, Tolerance: w.tolerance()},
				seed:     op,
				attempts: maxAttempts,
				client: func(attempt int) (*fraz.Client, error) {
					return fraz.New(cl.codec, w.targetOption(target), fraz.ReuseBounds(false), fraz.Seed(op+int64(attempt)*retrySeedStep))
				},
			})
		}
	}
	return jobs
}

// run executes rounds until the measured caller time reaches the budget. The
// operation list is fixed by the seed; the budget only decides how long a
// prefix of it, in whole balanced rounds, is run. With a recorder, odd rounds
// are traced and replayed layer by layer and even rounds run plain, so one
// run holds both sides of the tracing-overhead comparison; the replays take
// about as long as the operations they explain, and a traced run counts
// wall-clock time, replays included, against twice the budget.
func (st *libState) run(ctx context.Context, budget time.Duration, ls *layerStats) (plain, traced *tally) {
	plain, traced = &tally{}, &tally{}
	var spent time.Duration
	if ls != nil {
		budget *= 2
	}
	for k := 1; spent < budget; k++ {
		t, rec := plain, (*layerStats)(nil)
		if ls != nil && k%2 == 1 {
			t, rec = traced, ls
		}
		runtime.GC()
		before, start := len(t.ops), time.Now()
		for i, j := range st.round(k) {
			st.runJob(ctx, t, j, k*1000+i, rec)
		}
		spent += roundCost(t.ops[before:], time.Since(start), 1, ls != nil)
	}
	return plain, traced
}

// roundCost is what a round takes from the budget: the caller time of its
// operations, or in a traced run its wall-clock time.
func roundCost(ops []opRecord, wall time.Duration, clients int, traced bool) time.Duration {
	if traced {
		return wall
	}
	return callerTime(ops) / time.Duration(clients)
}

// runJob times one compress and the decompressions of its archive, verifies
// every output, and (when traced) replays the layers underneath.
func (st *libState) runJob(ctx context.Context, t *tally, j job, op int, ls *layerStats) {
	out := opRecord{kind: opCompress, round: op / 1000, class: j.class.name, raw: j.data.Bytes()}
	var (
		buf bytes.Buffer
		res *fraz.CompressResult
		err error
	)
	buf.Grow(j.data.Bytes() / 2)
	mem := ls.memBefore()
	before := st.probe.sample()
	span, took := ls.time("fraz.compress", op, -1, func() { res, out.retries, err = j.compress(ctx, &buf) })
	out.timed, out.latency = took, scaled(took, before, st.probe.sample())
	ls.memAfter(mem)
	if err != nil {
		out.infeasible = errors.Is(err, fraz.ErrInfeasible)
		t.opError(fmt.Errorf("%s compress: %w", j.class.name, err))
		t.ops = append(t.ops, out)
		return
	}
	if j.done != nil {
		j.done(res)
	}
	out.searchFields(res)
	out.stored = res.BytesWritten
	archive := buf.Bytes()

	var first *fraz.DecompressResult
	decodes := make([]opRecord, 0, st.w.decodes)
	for d := 0; d < st.w.decodes; d++ {
		dec := opRecord{kind: opDecompress, round: op / 1000, class: j.class.name, raw: j.data.Bytes()}
		var got *fraz.DecompressResult
		var derr error
		before := st.probe.sample()
		dspan, dtook := ls.time("fraz.decompress", op, -1, func() {
			got, derr = fraz.DecompressFull(ctx, bytes.NewReader(archive))
		})
		dec.timed, dec.latency = dtook, scaled(dtook, before, st.probe.sample())
		switch {
		case derr != nil:
			t.wrong = append(t.wrong, fmt.Errorf("%s op %d: archive does not decode: %w", j.class.name, op, derr))
		case d == 0:
			first = got
			dec.ok = true // settled below, with the archive's full check
			if ls != nil {
				ls.replayDecompress(ctx, op, dspan, archive)
			}
		default:
			if _, verr := verify.Decoded(j.data, got, 61); verr != nil {
				t.wrong = append(t.wrong, fmt.Errorf("%s op %d decode %d: %w", j.class.name, op, d, verr))
			} else {
				dec.ok = true
			}
		}
		decodes = append(decodes, dec)
	}

	if first != nil {
		rep, verr := verify.Reconstruction(j.data, len(archive), first, verify.FromResult(res), j.req)
		if verr != nil {
			t.wrong = append(t.wrong, fmt.Errorf("%s op %d: %w", j.class.name, op, verr))
			decodes[0].ok = false
		} else {
			out.ok, out.inBand = true, rep.InBand
		}
	}
	t.ops = append(t.ops, out)
	t.ops = append(t.ops, decodes...)
	if ls != nil {
		ls.replayCompress(ctx, replay{
			op: op, parent: span, job: j, res: res, archive: archive,
			objective: st.w.objective, workers: 0,
		})
	}
}
