package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer: the
// benchmark opens it just before calling a package's public function and
// closes it on return. Parent is the index of the enclosing span, -1 for a
// root. Times are nanoseconds since the tracer started.
type span struct {
	Name       string
	Parent     int
	Start, End int64
}

// tracer keeps spans in memory for one serial traced run; it is not safe for
// concurrent use.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.now(), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.now() }

func (s span) dur() int64 { return s.End - s.Start }

// layerTime is the time spent in spans of one name: total is their summed
// duration, self the part of it no child span covers.
type layerTime struct {
	Count       int
	Total, Self int64
}

// check reports the first span that is left open or does not lie inside its
// parent's interval.
func (t *tracer) check() error {
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) not closed", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) opened before its parent %d", i, s.Name, s.Parent)
		}
		p := t.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] outside parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// layers sums spans by name. Children of one parent are sequential in a
// serial run, so a span's self time is its duration minus its children's.
func (t *tracer) layers() map[string]layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - child[i]
		out[s.Name] = lt
	}
	return out
}

// writeSummary prints one line per span name, largest self time first.
func (t *tracer) writeSummary(w io.Writer) {
	ls := t.layers()
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if ls[names[i]].Self != ls[names[j]].Self {
			return ls[names[i]].Self > ls[names[j]].Self
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		l := ls[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", n, l.Count, float64(l.Total)/1e6, float64(l.Self)/1e6)
	}
}
