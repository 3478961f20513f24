package main

import (
	"sync"
	"time"
)

// The machines this benchmark runs on are small virtual machines on shared
// hosts. On the one it was built on, each virtual processor is a hardware
// thread whose sibling thread belongs to other tenants: whenever a sibling is
// busy, the same single-threaded code takes 1.28 times as long, in stretches
// of two to twenty seconds and now and then for half an hour (README.md has
// the measurements). Raw timings of one commit then differ by a quarter from
// run to run, which is more than any change the benchmark is there to
// resolve.
//
// speedProbe measures that factor where it acts. Between timed operations it
// runs a fixed piece of single-threaded arithmetic — about two milliseconds
// of the prediction, quantisation and histogram steps a lossy compressor is
// made of, on 16 KiB that stay in the first-level cache — and every timed
// interval is scaled by probeNominal over the probe's time around it. A
// timing metric therefore reads what the code costs on an undisturbed
// processor; the unscaled figures are printed beside the scaled ones. The
// probe is the benchmark's own code and calls nothing in the repository, so
// no change to the repository can move it.

// probeNominal is how long the probe takes on the machine the baseline in
// README.md was recorded on while nothing disturbs it. On another machine
// every timing metric is scaled by one constant, which leaves comparisons
// between commits on that machine as they were.
const probeNominal = 1760 * time.Microsecond

// probeEvery is the shortest time between two probes: operations that follow
// one another faster share one.
const probeEvery = 20 * time.Millisecond

type speedProbe struct {
	mu      sync.Mutex
	data    [4096]float32
	last    time.Time
	took    time.Duration
	samples []time.Duration
	// sink keeps the compiler from dropping the probe's arithmetic.
	sink uint32
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{}
	for i := range p.data {
		p.data[i] = float32(i%977) * 0.001
	}
	return p
}

// sample returns how long the probe takes now. It runs the probe unless the
// last one ended less than probeEvery ago.
func (p *speedProbe) sample() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.last.IsZero() && time.Since(p.last) < probeEvery {
		return p.took
	}
	start := time.Now()
	p.sink += p.work()
	p.last = time.Now()
	p.took = p.last.Sub(start)
	p.samples = append(p.samples, p.took)
	return p.took
}

func (p *speedProbe) work() uint32 {
	const scale = 1 << 10
	var hist [256]uint32
	x := p.data[:]
	for rep := 0; rep < 64; rep++ {
		p1, p2 := x[1], x[0]
		for i := 2; i < len(x); i++ {
			pred := 2*p1 - p2
			q := int32((x[i] - pred) * scale)
			hist[uint8(q)]++
			p2, p1 = p1, pred+float32(q)/scale
		}
	}
	var s uint32
	for i, h := range hist {
		s += h * uint32(i+1)
	}
	return s
}

// scaled is what an interval that took d costs on an undisturbed processor,
// given the probe's time before and after it.
func scaled(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * 2 * float64(probeNominal) / float64(before+after))
}

// slowdown is the mean probe time of the run over probeNominal: 1 on an
// undisturbed reference machine.
func (p *speedProbe) slowdown() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range p.samples {
		sum += s
	}
	return float64(sum) / float64(len(p.samples)) / float64(probeNominal)
}

// stopwatch adds up an interval made of laps, each scaled by the probes at
// its two ends; the probes' own time is left out.
type stopwatch struct {
	p           *speedProbe
	start       time.Time
	before      time.Duration
	raw, scaled time.Duration
}

func (p *speedProbe) stopwatch() *stopwatch {
	before := p.sample()
	return &stopwatch{p: p, before: before, start: time.Now()}
}

func (s *stopwatch) lap() {
	lap := time.Since(s.start)
	after := s.p.sample()
	s.raw += lap
	s.scaled += scaled(lap, s.before, after)
	s.before, s.start = after, time.Now()
}
