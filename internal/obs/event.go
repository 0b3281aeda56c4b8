package obs

import (
	"fmt"
	"io"
	"sync"
)

// Event is one observation on the trace stream. It generalizes the engine's
// progress event (Scope/Item/Done/Total/Text) with a Kind discriminator and
// an optional metric payload, so sweep progress, experiment phases and
// runtime decisions (sampling, learning, deciding, health-reverting) all
// flow through one observer type.
type Event struct {
	// Scope names the emitting activity, e.g. "sweep", "experiment fig1",
	// "runtime".
	Scope string
	// Item names the unit of work within the scope, e.g. a benchmark or a
	// config digest.
	Item string
	// Kind discriminates trace events ("baseline", "sampling", "decision",
	// "health_revert", "phase_change", ...). Progress events leave it empty.
	Kind string
	// Done/Total carry progress when known (Total 0 means unknown).
	Done  int
	Total int
	// Text is a preformatted human-readable line; sinks that only render
	// text may ignore everything else.
	Text string
	// Values carries window metrics keyed by metric-style names.
	Values map[string]float64
}

// TraceSink consumes events. Sinks must be safe to call from multiple
// goroutines when attached to parallel activities; a nil sink means "no
// observer" and emitters must tolerate it.
type TraceSink func(Event)

// TextSink returns a sink that prints each event's Text line to w,
// serialized by an internal mutex so concurrent emitters never interleave
// partial lines. Events with empty Text are dropped.
func TextSink(w io.Writer) TraceSink {
	var mu sync.Mutex
	return func(e Event) {
		if e.Text == "" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintln(w, e.Text)
	}
}
