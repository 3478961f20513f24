package trace

import (
	"testing"
	"time"
)

func TestNilRecorderStillRunsAndTimes(t *testing.T) {
	var r *Recorder
	ran := false
	id, took := r.Time("x", 1, -1, func() { ran = true; time.Sleep(time.Millisecond) })
	if !ran || id != -1 || took < time.Millisecond || r.Spans() != nil {
		t.Errorf("ran=%v id=%d took=%v spans=%v", ran, id, took, r.Spans())
	}
}

func TestRecorderKeepsParentAndOrder(t *testing.T) {
	r := New()
	parent, _ := r.Time("call", 7, -1, func() {})
	child, _ := r.Time("layer", 7, parent, func() {})
	spans := r.Spans()
	if len(spans) != 2 || spans[child].Parent != parent || spans[child].Op != 7 || spans[parent].Parent != -1 {
		t.Fatalf("spans %+v", spans)
	}
	if spans[child].Start < spans[parent].End {
		t.Errorf("a span replayed after its parent starts at %d, before the parent's end %d", spans[child].Start, spans[parent].End)
	}
}

func ms(n int64) int64 { return n * int64(time.Millisecond) }

func TestBreakdownsSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "call", Start: 0, End: ms(100)},
		{ID: 1, Parent: 0, Name: "tune", Start: ms(100), End: ms(160)},
		{ID: 2, Parent: 0, Name: "seal", Start: ms(160), End: ms(190)},
		{ID: 3, Parent: -1, Name: "call", Start: ms(200), End: ms(300)},
		{ID: 4, Parent: 3, Name: "tune", Start: ms(300), End: ms(380)},
		// Timed but not replayed: must not count as unaccounted time.
		{ID: 5, Parent: -1, Name: "call", Start: ms(400), End: ms(900)},
		// A layer sample that explains no call.
		{ID: 6, Parent: -1, Name: "kernel", Start: ms(900), End: ms(910)},
	}
	got := Breakdowns(spans)
	if len(got) != 1 {
		t.Fatalf("breakdowns %+v, want one (for \"call\")", got)
	}
	b := got[0]
	if b.Parent != "call" || b.Calls != 2 || b.Total != 200*time.Millisecond || b.Unaccounted != 30*time.Millisecond {
		t.Errorf("breakdown %+v, want 2 calls, 200 ms total, 30 ms unaccounted", b)
	}
	want := []Part{{"tune", 140 * time.Millisecond}, {"seal", 30 * time.Millisecond}}
	if len(b.Children) != 2 || b.Children[0] != want[0] || b.Children[1] != want[1] {
		t.Errorf("children %+v, want %+v", b.Children, want)
	}
}
