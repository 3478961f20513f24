// Coverage for the observable cache tier: Client.Stats and the SharedCache
// option that pools tuning evaluations across clients.
package fraz_test

import (
	"context"
	"testing"

	"fraz"
)

func TestStatsWithoutTunerIsZero(t *testing.T) {
	c, err := fraz.New("sz:abs") // decompress-only client: no target, no cache
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s != (fraz.CacheStats{}) {
		t.Errorf("decompress-only client reports non-zero cache stats: %+v", s)
	}
}

func TestSharedCacheRejectsNil(t *testing.T) {
	if _, err := fraz.New("sz:abs", fraz.SharedCache(nil)); err == nil {
		t.Fatal("SharedCache(nil) accepted")
	}
}

// TestSharedCachePoolsEvaluationsAcrossClients is the service scenario: two
// independent clients — two requests — tune the same field through one
// shared cache. The second tune must be answered substantially from memory,
// and the shared stats must make that visible.
func TestSharedCachePoolsEvaluationsAcrossClients(t *testing.T) {
	data, shape := testField()
	shared := fraz.NewEvalCache(0)
	// One worker, because this test counts fresh compressions: more workers
	// also compress ahead in regions the answer does not rest on, how far
	// ahead being up to the scheduler.
	opts := []fraz.Option{
		fraz.Ratio(10), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(3),
		fraz.SharedCache(shared), fraz.Workers(1),
	}

	a, err := fraz.New("sz:abs", opts...)
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.Tune(context.Background(), data, shape)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := shared.Stats()
	if afterFirst.Evaluations == 0 {
		t.Fatal("first tune recorded no evaluations in the shared cache")
	}
	if afterFirst.Evaluations != afterFirst.Misses {
		t.Errorf("Evaluations (%d) must equal Misses (%d)", afterFirst.Evaluations, afterFirst.Misses)
	}

	b, err := fraz.New("sz:abs", opts...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.Tune(context.Background(), data, shape)
	if err != nil {
		t.Fatal(err)
	}
	afterSecond := shared.Stats()

	if second.CacheHits == 0 {
		t.Errorf("second client re-tuning the same field hit the shared cache 0 times (first run: %d evaluations)", first.Evaluations)
	}
	if afterSecond.Hits <= afterFirst.Hits {
		t.Errorf("shared cache hits did not grow across clients: %d -> %d", afterFirst.Hits, afterSecond.Hits)
	}
	if gotB, want := b.Stats(), afterSecond; gotB != want {
		t.Errorf("Client.Stats() (%+v) disagrees with the shared cache it records into (%+v)", gotB, want)
	}
	// The deterministic same-seed search revisits the same bounds, so the
	// second tune should run strictly fewer fresh compressions than the
	// first.
	freshSecond := afterSecond.Misses - afterFirst.Misses
	if freshSecond >= afterFirst.Misses {
		t.Errorf("second tune ran %d fresh evaluations, not fewer than the first's %d", freshSecond, afterFirst.Misses)
	}
	if afterSecond.Entries == 0 {
		t.Error("shared cache reports zero resident entries after two tunes")
	}
	if hr := afterSecond.HitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("hit rate %v outside (0,1)", hr)
	}
}
