package main

import (
	"testing"
	"time"
)

func TestScaled(t *testing.T) {
	const d = 90 * time.Millisecond
	for _, c := range []struct {
		before, after time.Duration
		want          time.Duration
	}{
		{probeNominal, probeNominal, d},             // undisturbed: as timed
		{2 * probeNominal, 2 * probeNominal, d / 2}, // machine at half speed throughout
		{probeNominal, 2 * probeNominal, d * 2 / 3}, // slowed on the way: the mean of the two probes
		{probeNominal / 2, probeNominal / 2, 2 * d}, // a faster machine than the reference
	} {
		if got := scaled(d, c.before, c.after); got < c.want-time.Microsecond || got > c.want+time.Microsecond {
			t.Errorf("scaled(%v, %v, %v) = %v, want %v", d, c.before, c.after, got, c.want)
		}
	}
}

// A stopwatch adds up its laps and leaves the probes' own time out; its
// scaled total is the raw one over the slowdown the probes saw.
func TestStopwatch(t *testing.T) {
	p := newSpeedProbe()
	sw := p.stopwatch()
	for i := 0; i < 3; i++ {
		time.Sleep(25 * time.Millisecond) // past probeEvery, so every lap ends in a fresh probe
		sw.lap()
	}
	if len(p.samples) != 4 {
		t.Errorf("%d probes for a start and three laps, want 4", len(p.samples))
	}
	if sw.raw < 75*time.Millisecond || sw.raw > 150*time.Millisecond {
		t.Errorf("raw = %v, want the three sleeps and not the probes", sw.raw)
	}
	lo, hi := p.samples[0], p.samples[0]
	for _, s := range p.samples {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if min, max := scaled(sw.raw, hi, hi), scaled(sw.raw, lo, lo); sw.scaled < min || sw.scaled > max {
		t.Errorf("scaled = %v, outside [%v, %v] given probes between %v and %v", sw.scaled, min, max, lo, hi)
	}
	if s := p.slowdown(); !(s > 0) {
		t.Errorf("slowdown = %v", s)
	}
}
