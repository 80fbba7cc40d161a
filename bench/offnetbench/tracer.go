package main

import (
	"time"
)

// tracer records a span around each call the benchmark makes into a
// layer. Spans stay in memory until the run ends. A nil tracer runs the
// calls untraced, which lets set-up and the traced replay share code.
// Spans nest by call order on one goroutine; CPU is the process's
// rusage delta, valid because the replay runs one layer at a time.
type tracer struct {
	start time.Time
	spans []span
	open  []int // ids of the spans in progress, innermost last
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (t *tracer) span(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.start))})
	t.open = append(t.open, id)
	cpu0 := selfCPU()
	err := fn()
	sp := &t.spans[id-1]
	sp.CPU = int64(selfCPU() - cpu0)
	sp.End = int64(time.Since(t.start))
	t.open = t.open[:len(t.open)-1]
	return err
}

// layerTime is the summed self time of every span with one name: each
// span's duration minus the part its child spans cover.
type layerTime struct {
	Wall, CPU time.Duration
	Count     int
}

// selfTimes folds spans into per-name self times.
func selfTimes(spans []span) map[string]layerTime {
	childWall := make(map[int]int64)
	childCPU := make(map[int]int64)
	for _, s := range spans {
		childWall[s.Parent] += s.End - s.Start
		childCPU[s.Parent] += s.CPU
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Wall += time.Duration(s.End - s.Start - childWall[s.ID])
		lt.CPU += time.Duration(s.CPU - childCPU[s.ID])
		lt.Count++
		out[s.Name] = lt
	}
	return out
}
