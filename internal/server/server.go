package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"

	"mct/api"
	"mct/internal/obs"
)

// Options configures a Server.
type Options struct {
	// StateDir is the durable state directory (required).
	StateDir string
	// Workers bounds intra-job parallelism; 0 means GOMAXPROCS.
	Workers int
	// QueueCap / PerClientCap bound the queued backlog (0 = defaults).
	QueueCap     int
	PerClientCap int
	// Obs receives the server's own counters and the engine family from
	// job fan-out, and backs /metrics. Nil creates a private registry.
	Obs *obs.Registry
}

const (
	defaultQueueCap     = 64
	defaultPerClientCap = 16
)

// serverObs is the server's own metric family.
type serverObs struct {
	submitted *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	resumed   *obs.Counter
	// persistErrors counts best-effort status/cleanup writes that failed;
	// the in-memory state stays authoritative and the next transition
	// rewrites the file, so a failure is observable rather than fatal.
	persistErrors *obs.Counter
}

func newServerObs(r *obs.Registry) serverObs {
	return serverObs{
		submitted: r.Counter("server.jobs_submitted"),
		rejected:  r.Counter("server.jobs_rejected"),
		completed: r.Counter("server.jobs_completed"),
		failed:    r.Counter("server.jobs_failed"),
		cancelled: r.Counter("server.jobs_cancelled"),
		resumed:   r.Counter("server.jobs_resumed"),

		persistErrors: r.Counter("server.persist_errors"),
	}
}

// Server is the mctd serving core: durable job store, fair queue, a single
// runner goroutine executing one job at a time (intra-job parallelism comes
// from the engine worker pool), and the HTTP handlers. Create with New —
// which also re-adopts unfinished jobs from a previous process — then serve
// Handler() and drive the queue with Run.
type Server struct {
	opt   Options
	reg   *obs.Registry
	stats serverObs
	store *store
	queue *fairQueue

	// mu guards jobs, order and seq (New fills them before any handler or
	// Run can see the Server).
	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	seq   int
}

// New opens (or creates) the state directory and recovers it: finished jobs
// become poll/fetchable history, and unfinished ones — queued or running at
// the previous process's death — re-enter the queue with their Resumes
// count bumped, oldest first. Their checkpoints stay on disk, so Execute
// continues them rather than starting over.
func New(opt Options) (*Server, error) {
	if opt.StateDir == "" {
		return nil, errors.New("server: Options.StateDir is required")
	}
	if opt.QueueCap <= 0 {
		opt.QueueCap = defaultQueueCap
	}
	if opt.PerClientCap <= 0 {
		opt.PerClientCap = defaultPerClientCap
	}
	reg := opt.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	st, err := openStore(opt.StateDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opt:   opt,
		reg:   reg,
		stats: newServerObs(reg),
		store: st,
		queue: newFairQueue(opt.QueueCap, opt.PerClientCap),
		jobs:  make(map[string]*job),
	}
	records, err := st.load()
	if err != nil {
		return nil, err
	}
	s.seq = nextID(records)
	for _, r := range records {
		j := newJob(r.spec, r.status)
		switch r.status.State {
		case api.StateDone, api.StateFailed:
			// One close per job: a terminal-at-load job is never queued, so
			// finish (the other close site) cannot run on it.
			close(j.done)
		case api.StateQueued, api.StateRunning:
			j.status.State = api.StateQueued
			if r.status.State == api.StateRunning {
				j.status.Resumes++
				s.stats.resumed.Add(1)
			}
			if err := st.writeStatus(j.status); err != nil {
				return nil, err
			}
			if err := s.queue.push(j); err != nil {
				// Recovery exceeding admission caps still must not drop
				// durable jobs.
				return nil, fmt.Errorf("server: recover %s: %w", r.status.ID, err)
			}
		default:
			return nil, fmt.Errorf("server: job %s has unknown state %q", r.status.ID, r.status.State)
		}
		s.jobs[r.status.ID] = j
		s.order = append(s.order, r.status.ID)
	}
	return s, nil
}

// Run drives the queue until ctx is cancelled: pop the next job in client
// rotation, execute it with checkpointing, persist the outcome. One job
// runs at a time. On ctx cancellation mid-job the job's state stays
// "running" on disk — exactly what New resumes from.
func (s *Server) Run(ctx context.Context) error {
	for {
		j := s.queue.pop()
		if j == nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-s.queue.wake:
				continue
			}
		}
		s.runJob(ctx, j)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

func (s *Server) runJob(ctx context.Context, j *job) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := j.setRunning(cancel)
	if err := s.store.writeStatus(st); err != nil {
		s.failJob(j, err)
		return
	}
	lastPersisted := -1
	sink := func(e obs.Event) {
		j.progress(e)
		cur := j.snapshot()
		// Persist progress at chunk granularity; skip unchanged repeats.
		if cur.Done != lastPersisted {
			lastPersisted = cur.Done
			s.persistStatus(cur)
		}
	}
	artifact, err := Execute(jctx, j.spec, ExecOptions{
		Workers:     s.opt.Workers,
		Events:      sink,
		Obs:         s.reg,
		Checkpoints: s.store.checkpoints(j.snapshot().ID),
	})
	switch {
	case err == nil:
		id := j.snapshot().ID
		if werr := s.store.writeArtifact(id, artifact); werr != nil {
			s.failJob(j, werr)
			return
		}
		s.stats.completed.Add(1)
		// The artifact is durable; the resume state has served its purpose.
		ck := s.store.checkpoints(id)
		for _, p := range []string{ck.machinePath(), ck.partialPath()} {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				s.stats.persistErrors.Add(1)
			}
		}
		s.persistStatus(j.finish(api.StateDone, "", len(artifact)))
	case errors.Is(err, context.Canceled) && ctx.Err() != nil && !j.wasCancelled():
		// Server shutdown, not failure: leave state "running" on disk so
		// the next process resumes from the last checkpoint.
	case errors.Is(err, context.Canceled) && j.wasCancelled():
		s.stats.cancelled.Add(1)
		s.persistStatus(j.finish(api.StateFailed, "cancelled by client", 0))
	default:
		s.failJob(j, err)
	}
}

func (s *Server) failJob(j *job, err error) {
	s.stats.failed.Add(1)
	s.persistStatus(j.finish(api.StateFailed, err.Error(), 0))
}

// persistStatus writes a status transition to disk, counting (not
// propagating) failures: the in-memory status is authoritative, every later
// transition rewrites the whole file, and a dying disk shows up on
// /metrics as server.persist_errors.
func (s *Server) persistStatus(st api.JobStatus) {
	if err := s.store.writeStatus(st); err != nil {
		s.stats.persistErrors.Add(1)
	}
}

// Submit validates, persists, and enqueues a job for client, returning its
// initial status. It is the programmatic form of POST /v1/jobs.
func (s *Server) Submit(client string, spec api.JobSpec) (api.JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return api.JobStatus{}, err
	}
	if client == "" {
		client = "anonymous"
	}
	s.mu.Lock()
	id := jobID(s.seq)
	s.seq++
	s.mu.Unlock()
	st := api.JobStatus{V: api.Version, ID: id, Kind: spec.Kind, Client: client, State: api.StateQueued}
	j := newJob(spec, st)
	// Persist before enqueueing: the runner may pop the job the instant it
	// is queued, and must find its directory on disk. A job that is not
	// queued leaves no directory behind, or the next New would fail to
	// load it.
	err := s.store.createJob(id, spec)
	if err == nil {
		err = s.store.writeStatus(st)
	}
	if err == nil {
		if err = s.queue.push(j); err != nil {
			s.stats.rejected.Add(1)
		}
	}
	if err != nil {
		if rerr := os.RemoveAll(s.store.jobDir(id)); rerr != nil {
			s.stats.persistErrors.Add(1)
		}
		return api.JobStatus{}, err
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.stats.submitted.Add(1)
	return st, nil
}

func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"ok\":true}\n") //mctlint:ignore uncheckederr a failed response write means the client is gone; nothing to do
	})
	return mux
}

// httpError writes a JSON error document.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{%q: %q}\n", "error", err.Error()) //mctlint:ignore uncheckederr a failed response write means the client is gone; nothing to do
}

func writeDoc(w http.ResponseWriter, code int, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(doc) //mctlint:ignore uncheckederr a failed response write means the client is gone; nothing to do
}

// clientKey identifies the submitting client for fairness: the X-MCT-Client
// header when set, else the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-MCT-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxSpecBytes {
		httpError(w, http.StatusRequestEntityTooLarge, errors.New("job spec exceeds 1 MiB"))
		return
	}
	spec, err := api.DecodeJobSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.Submit(clientKey(r), spec)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClientQuota):
		httpError(w, http.StatusTooManyRequests, err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
	default:
		writeDoc(w, http.StatusCreated, api.Encode(st))
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	list := api.JobList{V: api.Version}
	for _, id := range ids {
		if j := s.job(id); j != nil {
			list.Jobs = append(list.Jobs, j.snapshot())
		}
	}
	writeDoc(w, http.StatusOK, api.Encode(list))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeDoc(w, http.StatusOK, api.Encode(j.snapshot()))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.job(id)
	if j == nil {
		httpError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	if j.terminal() {
		httpError(w, http.StatusConflict, errors.New("job already finished"))
		return
	}
	if s.queue.remove(id) {
		s.stats.cancelled.Add(1)
		s.persistStatus(j.finish(api.StateFailed, "cancelled by client", 0))
	} else {
		j.requestCancel()
	}
	writeDoc(w, http.StatusOK, api.Encode(j.snapshot()))
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	st := j.snapshot()
	switch st.State {
	case api.StateDone:
		artifact, err := s.store.readArtifact(st.ID)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeDoc(w, http.StatusOK, artifact)
	case api.StateFailed:
		httpError(w, http.StatusConflict, fmt.Errorf("job failed: %s", st.Error))
	default:
		httpError(w, http.StatusConflict, fmt.Errorf("job is %s; artifact not ready", st.State))
	}
}

// handleEvents streams the job's progress as server-sent events: one
// "data:" frame per api.Event document, ending with the terminal status
// frame. A subscriber joining a finished job gets exactly that final frame.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	writeFrame := func(e api.Event) {
		// api.Encode is indented; SSE data frames must be single-line.
		data, err := json.Marshal(e)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", data) //mctlint:ignore uncheckederr a failed stream write means the client is gone; the next select exits on request context
		flusher.Flush()
	}

	ch, unsub := j.subscribe()
	defer unsub()
	// A job that finished before we subscribed publishes nothing more;
	// deliver the terminal frame ourselves.
	if j.terminal() {
		writeFrame(statusEvent(j.snapshot()))
		return
	}
	writeFrame(statusEvent(j.snapshot()))
	for {
		select {
		case e := <-ch:
			writeFrame(e)
			if e.Kind == "status" && (e.Text == api.StateDone || e.Text == api.StateFailed) {
				return
			}
		case <-j.done:
			// Drain anything published before done closed, then finish
			// with the terminal status.
			for {
				select {
				case e := <-ch:
					writeFrame(e)
				default:
					writeFrame(statusEvent(j.snapshot()))
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics serves the obs registry — stable families plus volatile
// runtime gauges — as its full dump (Registry.DumpAllJSON).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.reg.DumpAllJSON()) //mctlint:ignore uncheckederr a failed response write means the client is gone; nothing to do
}
