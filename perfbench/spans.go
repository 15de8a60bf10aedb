package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// recorder keeps the spans of a traced run in memory: one per call the
// benchmark makes into a layer, with the span that caused it. An off
// recorder (the untraced run) records nothing.
type recorder struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Thread int           `json:"thread"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newRecorder(on bool) *recorder { return &recorder{on: on, epoch: time.Now()} }

// begin opens a span and returns its id (0 when the recorder is off;
// ids start at 1, and parent 0 marks a root).
func (r *recorder) begin(name string, parent, thread int) int {
	if !r.on {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Thread: thread, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// write saves the spans as a Chrome trace_event file (viewable in
// Perfetto) with the host fingerprint and the run's metrics alongside.
func (r *recorder) write(path string, h host, m metrics) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Thread, Args: map[string]int{"id": s.ID, "parent": s.Parent}}
	}
	r.mu.Unlock()
	raw, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
		Host        host    `json:"host"`
		Metrics     metrics `json:"metrics"`
	}{events, h, m})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
