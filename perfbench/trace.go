package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed public call of the traced segment. Spans of one
// closed-loop step share Req; Parent indexes the enclosing span (-1 for
// a step's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced segments run.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32
	req   int64
	done  bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), cur: -1}
}

func (t *tracer) begin(name string) int32 {
	if t == nil || t.done {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.cur, Req: t.req})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.cur = s.Parent
}

// next starts the next request (closed-loop step).
func (t *tracer) next() {
	if t != nil {
		t.req++
	}
}

// stop ends recording; the spans stay readable.
func (t *tracer) stop() { t.done = true }

// durations returns the durations in ms of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMedian and spanMean summarise the spans called name; a call the
// workload never makes reads 0.
func (r *run) spanMedian(name string) float64 {
	d := r.tr.durations(name)
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

func (r *run) spanMean(name string) float64 { return mean(r.tr.durations(name)) }
