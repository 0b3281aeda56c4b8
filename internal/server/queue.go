package server

import (
	"errors"
	"sync"
)

// Admission errors, mapped to HTTP 429 by the handlers.
var (
	// ErrQueueFull rejects a submission when the total queued backlog is at
	// capacity.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrClientQuota rejects a submission when one client's queued backlog
	// is at its per-client cap, independent of total capacity — one greedy
	// client cannot occupy the whole queue.
	ErrClientQuota = errors.New("server: per-client queue quota exceeded")
)

// fairQueue is a bounded FIFO-per-client queue drained round-robin across
// clients: the next job comes from the next client in rotation that has
// anything queued, so a client submitting one job behind another client's
// fifty waits one job, not fifty. Admission is capped both in total and per
// client.
type fairQueue struct {
	mu        sync.Mutex
	capTotal  int
	capClient int
	queued    int
	byClient  map[string][]*job
	// rotation is the round-robin order; clients join on first enqueue and
	// leave when drained.
	rotation []string
	next     int
	// wake signals the runner loop that work may be available.
	wake chan struct{}
}

func newFairQueue(capTotal, capClient int) *fairQueue {
	return &fairQueue{
		capTotal:  capTotal,
		capClient: capClient,
		byClient:  make(map[string][]*job),
		wake:      make(chan struct{}, 1),
	}
}

// push enqueues j for its client, enforcing both caps.
func (q *fairQueue) push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	client := j.status.Client
	if q.queued >= q.capTotal {
		return ErrQueueFull
	}
	if len(q.byClient[client]) >= q.capClient {
		return ErrClientQuota
	}
	if len(q.byClient[client]) == 0 {
		q.rotation = append(q.rotation, client)
	}
	q.byClient[client] = append(q.byClient[client], j)
	q.queued++
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return nil
}

// pop removes and returns the next job in client rotation, or nil when the
// queue is empty.
func (q *fairQueue) pop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.queued == 0 {
		return nil
	}
	if q.next >= len(q.rotation) {
		q.next = 0
	}
	client := q.rotation[q.next]
	jobs := q.byClient[client]
	j := jobs[0]
	if len(jobs) == 1 {
		delete(q.byClient, client)
		q.rotation = append(q.rotation[:q.next], q.rotation[q.next+1:]...)
		// q.next now points at the following client; wrap handled above.
	} else {
		q.byClient[client] = jobs[1:]
		q.next++
	}
	q.queued--
	return j
}

// remove deletes a queued job by ID (client cancellation). It reports
// whether the job was found.
func (q *fairQueue) remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, client := range q.rotation {
		jobs := q.byClient[client]
		for i, j := range jobs {
			if j.status.ID != id {
				continue
			}
			jobs = append(jobs[:i], jobs[i+1:]...)
			if len(jobs) == 0 {
				delete(q.byClient, client)
				for k, c := range q.rotation {
					if c == client {
						q.rotation = append(q.rotation[:k], q.rotation[k+1:]...)
						if q.next > k {
							q.next--
						}
						break
					}
				}
			} else {
				q.byClient[client] = jobs
			}
			q.queued--
			return true
		}
	}
	return false
}
