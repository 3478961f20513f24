// Package trace is the benchmark's in-memory span recorder. Spans are taken
// from the benchmark's own files, around the calls into each layer; nothing
// inside the program is instrumented. A layer call replayed after the
// end-to-end call it explains names that call as its parent, so self time
// (a span minus its children) is the part of the end-to-end call no replayed
// layer accounts for.
package trace

import (
	"sync"
	"time"
)

// Span is one timed call. Start and End are nanoseconds since the recorder
// was made; Parent is the ID of the span this one explains, or -1.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder collects spans in memory. The nil Recorder records nothing, so
// the untraced run executes the same statements as the traced one.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// New starts a recorder; span times count from now.
func New() *Recorder { return &Recorder{t0: time.Now()} }

// Time runs fn inside a span and returns the span's ID (-1 on the nil
// recorder) and how long fn took.
func (r *Recorder) Time(name string, op, parent int, fn func()) (id int, took time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	took = end.Sub(start)
	if r == nil {
		return -1, took
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id = len(r.spans)
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id, took
}

// Spans returns what was recorded, in order of completion.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Part is the time the children of one name took beneath a parent name.
type Part struct {
	Name  string
	Total time.Duration
}

// Breakdown is "where one operation's wall-clock goes" for the spans of one
// name: their summed time, the share each kind of child accounts for, and
// the remainder — the parent's self time. Only parents that have children
// are counted, so calls that were timed but not replayed do not show up as
// unaccounted time.
type Breakdown struct {
	Parent      string
	Calls       int
	Total       time.Duration
	Children    []Part
	Unaccounted time.Duration
}

// Breakdowns folds spans into one Breakdown per parent name, in order of
// first appearance.
func Breakdowns(spans []Span) []Breakdown {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	index := map[string]int{}
	counted := map[int]bool{}
	var out []Breakdown
	for _, s := range spans {
		parent, ok := byID[s.Parent]
		if s.Parent < 0 || !ok {
			continue
		}
		i, seen := index[parent.Name]
		if !seen {
			i = len(out)
			index[parent.Name] = i
			out = append(out, Breakdown{Parent: parent.Name})
		}
		b := &out[i]
		if !counted[parent.ID] {
			counted[parent.ID] = true
			b.Calls++
			b.Total += parent.Duration()
			b.Unaccounted += parent.Duration()
		}
		b.Unaccounted -= s.Duration()
		k := 0
		for k < len(b.Children) && b.Children[k].Name != s.Name {
			k++
		}
		if k == len(b.Children) {
			b.Children = append(b.Children, Part{Name: s.Name})
		}
		b.Children[k].Total += s.Duration()
	}
	return out
}
