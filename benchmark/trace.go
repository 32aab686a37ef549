package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's exported function. Parent is the span whose call contains this one
// in the program's own call tree (0 = none); spans of one request share Req.
//
// Child spans are not instrumented inside their parent — that is a later
// issue. They are measured by calling the child layer's exported function on
// the same input in a separate pass, so a child's interval does not lie
// inside its parent's; only the durations are comparable. selfTime works on
// durations for that reason.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Req    int                `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Not safe for concurrent
// use: concurrent clients hand their samples over after the fact (addSpan).
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record times fn as a span and returns the span's id.
func (t *tracer) record(name string, parent, req int, fn func()) int {
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	return t.addSpan(name, parent, req, start, end, nil)
}

func (t *tracer) addSpan(name string, parent, req int, start, end time.Duration, counts map[string]float64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(end), Counts: counts})
	return id
}

func (t *tracer) get(id int) *span { return &t.spans[id-1] }

// selfTimes returns, per span name, every span's duration minus the summed
// durations of its children, in microseconds.
func (t *tracer) selfTimes() map[string][]float64 {
	children := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], us(s.dur()-children[s.ID]))
	}
	return out
}

// durations returns every span duration of one name, in microseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
