package server

import (
	"context"
	"sync"

	"mct/api"
	"mct/internal/obs"
)

// job is one submitted job's in-memory state: the authoritative JobStatus,
// the SSE subscriber set, and the cancellation handle while running.
// status.json on disk trails this by at most one transition/chunk.
type job struct {
	spec api.JobSpec

	// mu guards status, cancel, cancelled, subs and nextSub. spec never
	// changes after newJob, and done is closed exactly once (see finish).
	mu     sync.Mutex
	status api.JobStatus
	// cancel aborts the running execution (client cancellation). cancelled
	// distinguishes that from a server shutdown, which must leave the job
	// resumable instead of failing it.
	cancel    context.CancelFunc
	cancelled bool
	// subs receive wire events; done is closed on reaching a terminal
	// state. Subscriber channels are buffered and lossy (droppedEvent
	// placeholder on overflow) so a slow SSE client can never stall the
	// runner.
	subs    map[int]chan api.Event
	nextSub int
	done    chan struct{}
}

func newJob(spec api.JobSpec, status api.JobStatus) *job {
	return &job{
		spec:   spec,
		status: status,
		subs:   make(map[int]chan api.Event),
		done:   make(chan struct{}),
	}
}

// snapshot returns a copy of the current status.
func (j *job) snapshot() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *job) terminal() bool {
	st := j.snapshot().State
	return st == api.StateDone || st == api.StateFailed
}

// subscribe registers an SSE listener and returns its channel plus an
// unsubscribe handle.
func (j *job) subscribe() (ch chan api.Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	id := j.nextSub
	j.nextSub++
	ch = make(chan api.Event, 64)
	j.subs[id] = ch
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		delete(j.subs, id)
	}
}

// publish fans an event out to every subscriber, dropping (not blocking) on
// full buffers: progress events are snapshots, so a lossy stream is still
// truthful — and the runner must never wait on a slow client.
func (j *job) publish(e api.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, ch := range j.subs {
		// Non-blocking fan-out by design: a full subscriber buffer drops
		// the frame instead of stalling the runner.
		select {
		case ch <- e: // the receiver is the SSE handler (handleEvents), reached through subs
		default:
		}
	}
}

// progress folds an execution observation into the status and republishes
// it to subscribers.
func (j *job) progress(e obs.Event) {
	j.mu.Lock()
	if e.Total > 0 {
		j.status.Done, j.status.Total = e.Done, e.Total
	}
	j.mu.Unlock()
	j.publish(api.FromEvent(e))
}

// statusEvent renders a status transition as a wire event (Kind "status").
func statusEvent(st api.JobStatus) api.Event {
	return api.Event{V: api.Version, Scope: "job", Item: st.ID, Kind: "status", Done: st.Done, Total: st.Total, Text: st.State}
}

// setRunning transitions queued → running and installs the cancel handle.
func (j *job) setRunning(cancel context.CancelFunc) api.JobStatus {
	j.mu.Lock()
	j.status.State = api.StateRunning
	j.cancel = cancel
	st := j.status
	j.mu.Unlock()
	j.publish(statusEvent(st))
	return st
}

// finish transitions to a terminal state, closes done, and wakes
// subscribers with a final status event.
func (j *job) finish(state, errText string, artifactBytes int) api.JobStatus {
	j.mu.Lock()
	j.status.State = state
	j.status.Error = errText
	j.status.ArtifactBytes = artifactBytes
	j.cancel = nil
	st := j.status
	j.mu.Unlock()
	j.publish(statusEvent(st))
	close(j.done)
	return st
}

// requestCancel marks the job client-cancelled and aborts the execution if
// running. It reports whether there was a running execution to abort.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancelled = true
	if j.cancel != nil {
		j.cancel()
		return true
	}
	return false
}

func (j *job) wasCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}
