package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer. Spans of
// one operation share Op; Parent is the ID of the enclosing span (0 for a
// root).
type span struct {
	Op      int64  `json:"op"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the traced run writes them out. A nil
// *spanLog records nothing, which is how the same code runs untraced.
type spanLog struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextOp int64
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// op allocates a new operation ID.
func (l *spanLog) op() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextOp++
	return l.nextOp
}

// start opens a span and returns its ID; end closes it.
func (l *spanLog) start(op, parent int64, name string) int64 {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Op: op, ID: int64(len(l.spans) + 1), Parent: parent, Name: name, StartNS: now, EndNS: -1})
	return int64(len(l.spans))
}

func (l *spanLog) end(id int64) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNS = now
	l.mu.Unlock()
}

// add records a span whose bounds were taken by the caller.
func (l *spanLog) add(op, parent int64, name string, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Op: op, ID: int64(len(l.spans) + 1), Parent: parent, Name: name,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds()})
	return int64(len(l.spans))
}

// write stores the spans as one JSON document.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
