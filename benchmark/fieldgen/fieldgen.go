// Package fieldgen makes the benchmark's inputs: seeded synthetic 3-D
// scientific fields, in single or double precision, and gently evolving
// time series of them.
//
// A field is a sum of separable terms — smooth cosine modes (the large-scale
// structure every codec predicts well) and Gaussian plumes (localised
// features, which make one slab of the field unlike another, so a bound
// tuned on a sampled block can miss on the whole) — plus a uniform noise
// floor of 5e-4 of the value range (the incompressible part that keeps
// ratios finite at loose bounds). The statistics (term counts, amplitude
// spectrum, plume widths, noise level) are fixed; the seed moves phases,
// wave numbers, plume positions and the noise, so two seeds give different
// bytes of the same kind of field.
//
// Every value is a pure function of (seed, index), so generation is split
// across goroutines without changing the bytes.
package fieldgen

import (
	"math"
	"runtime"
	"sync"

	"fraz/internal/grid"
)

// Float is the element types a field is generated in.
type Float interface {
	float32 | float64
}

const (
	numModes  = 6
	numPlumes = 4
	// NoiseFloor is the half-width of the uniform noise, as a share of the
	// noiseless field's value range.
	NoiseFloor = 5e-4
)

// splitmix64 is the generator behind every seeded choice; it is also the
// per-element hash for the noise floor.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s = splitmix64(r.s)
	return r.s
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// in returns a uniform value in [lo, hi).
func (r *rng) in(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// term is one separable summand amp·fz(z)·fy(y)·fx(x), with its three 1-D
// profiles tabulated over the grid.
type term struct {
	amp        float64
	fz, fy, fx []float64
}

func cosProfile(n int, waves, phase float64) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = math.Cos(2 * math.Pi * (waves*float64(i)/float64(n) + phase))
	}
	return p
}

func gaussProfile(n int, centre, sigma float64) []float64 {
	p := make([]float64, n)
	for i := range p {
		d := (float64(i)/float64(n) - centre) / sigma
		p[i] = math.Exp(-0.5 * d * d)
	}
	return p
}

// zPeriods is how many identical periods a series field has along its slow
// axis: every z-profile of such a field repeats zPeriods times, so cutting
// the field into 2, 4 or 8 slabs gives slabs that hold the same structure
// (and differ only in their noise).
const zPeriods = 8

// layout says how a field's structure is spread along the slow axis.
type layout struct {
	// plumes adds the Gaussian plumes to the smooth modes.
	plumes bool
	// periodic makes every z-profile a gentle modulation 1 + 0.3·cos with
	// zPeriods periods. Otherwise modes are free cosines and each plume is a
	// compact blob in its own quarter of the axis, each of its own strength
	// and width — so the quarters differ, and a bound tuned on one slab of
	// the field need not suit the whole.
	periodic bool
}

func (l layout) zProfile(r *rng, n int, free func() []float64) []float64 {
	if !l.periodic {
		return free()
	}
	p := cosProfile(n, zPeriods, r.float())
	for i, v := range p {
		p[i] = 1 + 0.3*v
	}
	return p
}

// terms draws the separable structure of one field.
func terms(r *rng, shape [3]int, l layout) []term {
	ts := make([]term, 0, numModes+numPlumes)
	for k := 0; k < numModes; k++ {
		waves := float64(1 + k/2)
		ts = append(ts, term{
			amp: 1 / float64(1+k),
			fz:  l.zProfile(r, shape[0], func() []float64 { return cosProfile(shape[0], r.in(0.5, 1.5)*waves, r.float()) }),
			fy:  cosProfile(shape[1], r.in(0.5, 1.5)*waves, r.float()),
			fx:  cosProfile(shape[2], r.in(0.5, 1.5)*waves, r.float()),
		})
	}
	if !l.plumes {
		return ts
	}
	for p := 0; p < numPlumes; p++ {
		sign := 1.0
		if p%2 == 1 {
			sign = -1
		}
		// Blob p sits in the p-th quarter of the slow axis, so every seed
		// spreads the blobs over the blocks the same way and only their
		// exact place, strength and width move.
		centre := (float64(p) + r.in(0.2, 0.8)) / numPlumes
		ts = append(ts, term{
			amp: sign * r.in(0.4, 0.8),
			fz:  l.zProfile(r, shape[0], func() []float64 { return gaussProfile(shape[0], centre, r.in(0.04, 0.10)) }),
			fy:  gaussProfile(shape[1], r.in(0.2, 0.8), r.in(0.05, 0.15)),
			fx:  gaussProfile(shape[2], r.in(0.2, 0.8), r.in(0.05, 0.15)),
		})
	}
	return ts
}

// slabs runs fn over [0, nz) split into one contiguous slab per processor
// and waits for all of them.
func slabs(nz int, fn func(z0, z1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > nz {
		workers = nz
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		z0, z1 := nz*w/workers, nz*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(z0, z1)
		}()
	}
	wg.Wait()
}

// synth evaluates the separable sum into dst and returns its min and max.
func synth[T Float](dst []T, shape [3]int, ts []term) (lo, hi float64) {
	ny, nx := shape[1], shape[2]
	var mu sync.Mutex
	lo, hi = math.Inf(1), math.Inf(-1)
	slabs(shape[0], func(z0, z1 int) {
		row := make([]float64, nx)
		slo, shi := math.Inf(1), math.Inf(-1)
		for z := z0; z < z1; z++ {
			for y := 0; y < ny; y++ {
				for x := range row {
					row[x] = 0
				}
				for _, t := range ts {
					c := t.amp * t.fz[z] * t.fy[y]
					for x, fx := range t.fx {
						row[x] += c * fx
					}
				}
				out := dst[(z*ny+y)*nx : (z*ny+y+1)*nx]
				for x, v := range row {
					out[x] = T(v)
					if v < slo {
						slo = v
					}
					if v > shi {
						shi = v
					}
				}
			}
		}
		mu.Lock()
		lo, hi = math.Min(lo, slo), math.Max(hi, shi)
		mu.Unlock()
	})
	return lo, hi
}

// addNoise adds uniform noise of the given half-width, hashed from the seed
// and the element index.
func addNoise[T Float](dst []T, shape [3]int, seed uint64, half float64) {
	plane := shape[1] * shape[2]
	slabs(shape[0], func(z0, z1 int) {
		for i := z0 * plane; i < z1*plane; i++ {
			u := float64(splitmix64(seed^uint64(i))>>11) / (1 << 53)
			dst[i] += T(half * (2*u - 1))
		}
	})
}

// Field generates one field of the given shape (slowest dimension first).
func Field[T Float](seed uint64, shape [3]int) []T {
	return field[T](seed, shape, layout{plumes: true})
}

func field[T Float](seed uint64, shape [3]int, l layout) []T {
	r := &rng{s: seed}
	dst := make([]T, shape[0]*shape[1]*shape[2])
	lo, hi := synth(dst, shape, terms(r, shape, l))
	addNoise(dst, shape, r.next(), NoiseFloor*(hi-lo))
	return dst
}

// Series is one field evolving in time: step t is Base + Amp(t)·Mode, where
// Mode is a smooth field of about the base's range. Consecutive steps differ
// in every value (so nothing keyed on the bytes answers for the next step)
// yet stay close enough that an error bound that met a ratio target on one
// step usually meets it on the next — the property the paper's time-step
// reuse (Algorithm 3) relies on.
type Series struct {
	Base, Mode Data
}

// NewSeries generates a series' base field and evolution mode, both
// periodic along the slow axis. A series is one long-lived field whose bound
// is tuned once and reused, so whether a sampled block speaks for the whole
// would otherwise be one draw per seed; periodic structure makes it a
// property of the workload.
func NewSeries(seed uint64, shape [3]int, wide bool) *Series {
	s := &Series{Base: Data{Shape: shape[:]}, Mode: Data{Shape: shape[:]}}
	ts := terms(&rng{s: splitmix64(seed ^ 0x6d6f6465)}, shape, layout{periodic: true}) // "mode"
	if wide {
		s.Base.F64 = field[float64](seed, shape, layout{plumes: true, periodic: true})
		s.Mode.F64 = make([]float64, len(s.Base.F64))
		synth(s.Mode.F64, shape, ts)
	} else {
		s.Base.F32 = field[float32](seed, shape, layout{plumes: true, periodic: true})
		s.Mode.F32 = make([]float32, len(s.Base.F32))
		synth(s.Mode.F32, shape, ts)
	}
	return s
}

// Amp is the mode's weight at step t: every step is different data (sin t
// never repeats at whole t), within 0.3% of the mode's range of the base. The
// weight is small and bounded so that a bound tuned on one step stays in band
// on the others however long a series runs. A drift growing with t pushed
// every series out of its band somewhere past step ten, and even a bounded
// 2% did so for the seeds whose first tune landed near the band's edge: a
// full search of one to three seconds in about half of all 15 s runs.
func Amp(t int) float64 { return 0.003 * math.Sin(float64(t)) }

// Step writes step t into dst, a field of the series' shape and width, in
// one fused pass.
func (s *Series) Step(dst Data, t int) {
	if s.Base.Wide() {
		axpy(dst.F64, s.Base.F64, s.Mode.F64, Amp(t))
	} else {
		axpy(dst.F32, s.Base.F32, s.Mode.F32, Amp(t))
	}
}

func axpy[T Float](dst, base, mode []T, a float64) {
	const chunk = 1 << 16
	n := (len(base) + chunk - 1) / chunk
	slabs(n, func(c0, c1 int) {
		lo, hi := c0*chunk, c1*chunk
		if hi > len(base) {
			hi = len(base)
		}
		b, m, out := base[lo:hi], mode[lo:hi], dst[lo:hi]
		for i, v := range b {
			out[i] = v + T(a)*m[i]
		}
	})
}

// Data is a field at either width: exactly one of F32 and F64 is set. It is
// what the workloads pass around so one op list can mix precisions.
type Data struct {
	Shape []int
	F32   []float32
	F64   []float64
}

// New generates a field as Data, double precision when wide.
func New(seed uint64, shape [3]int, wide bool) Data {
	d := Data{Shape: shape[:]}
	if wide {
		d.F64 = Field[float64](seed, shape)
	} else {
		d.F32 = Field[float32](seed, shape)
	}
	return d
}

// Wide reports whether the field is double precision.
func (d Data) Wide() bool { return d.F64 != nil }

// Bytes is the raw size of the field.
func (d Data) Bytes() int { return 4*len(d.F32) + 8*len(d.F64) }

// Range returns max − min of the field.
func (d Data) Range() float64 {
	if d.Wide() {
		return grid.ValueRange(d.F64)
	}
	return grid.ValueRange(d.F32)
}

// Like allocates a zeroed field of d's shape and width.
func Like(d Data) Data {
	out := Data{Shape: d.Shape}
	if d.Wide() {
		out.F64 = make([]float64, len(d.F64))
	} else {
		out.F32 = make([]float32, len(d.F32))
	}
	return out
}
