package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mct/api"
	"mct/internal/config"
	"mct/internal/obs"
)

func evalSpec(insts uint64) api.JobSpec {
	cfg := api.FromConfig(config.StaticBaseline())
	return api.JobSpec{
		V:              api.Version,
		Kind:           api.KindEvaluate,
		Benchmark:      "stream",
		Config:         &cfg,
		WarmupAccesses: 5000,
		Insts:          insts,
	}
}

// evalChunks is an evaluate job length that spans several
// DefaultChunkInsts chunks: two whole ones and a partial third.
const evalChunks = 5 * DefaultChunkInsts / 2

// sweepSpec is a sweep over 102 strided configurations, two
// DefaultSweepChunk chunks (64 and 38).
func sweepSpec() api.JobSpec {
	return api.JobSpec{
		V:         api.Version,
		Kind:      api.KindSweep,
		Benchmark: "lbm",
		Accesses:  1500,
		Stride:    20,
	}
}

func queuedStatus(id, client string) api.JobStatus {
	return api.JobStatus{V: api.Version, ID: id, Client: client, State: api.StateQueued}
}

// waitDone blocks until the job reaches a terminal state, failing the test on
// timeout rather than hanging it.
func waitDone(t *testing.T, j *job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(2 * time.Minute):
		t.Fatal("timed out waiting for job to finish")
	}
}

// blockPath replaces the file at path with a non-empty directory, which no
// atomic write can rename over.
func blockPath(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return os.MkdirAll(filepath.Join(path, "occupied"), 0o755)
}

// --- queue -----------------------------------------------------------------

// TestFairQueueRotation: a client submitting one job behind another client's
// backlog waits one job, not the whole backlog.
func TestFairQueueRotation(t *testing.T) {
	q := newFairQueue(10, 5)
	a1 := newJob(api.JobSpec{}, queuedStatus("a1", "alice"))
	a2 := newJob(api.JobSpec{}, queuedStatus("a2", "alice"))
	a3 := newJob(api.JobSpec{}, queuedStatus("a3", "alice"))
	b1 := newJob(api.JobSpec{}, queuedStatus("b1", "bob"))
	for _, j := range []*job{a1, a2, a3, b1} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for j := q.pop(); j != nil; j = q.pop() {
		order = append(order, j.status.ID)
	}
	if got, want := strings.Join(order, ","), "a1,b1,a2,a3"; got != want {
		t.Fatalf("pop order %s, want %s", got, want)
	}
	if q.depth() != 0 {
		t.Fatalf("queue not drained: depth %d", q.depth())
	}
}

func TestFairQueueCaps(t *testing.T) {
	q := newFairQueue(3, 2)
	if err := q.push(newJob(api.JobSpec{}, queuedStatus("a1", "alice"))); err != nil {
		t.Fatal(err)
	}
	if err := q.push(newJob(api.JobSpec{}, queuedStatus("a2", "alice"))); err != nil {
		t.Fatal(err)
	}
	if err := q.push(newJob(api.JobSpec{}, queuedStatus("a3", "alice"))); !errors.Is(err, ErrClientQuota) {
		t.Fatalf("third job for one client: got %v, want ErrClientQuota", err)
	}
	if err := q.push(newJob(api.JobSpec{}, queuedStatus("b1", "bob"))); err != nil {
		t.Fatal(err)
	}
	if err := q.push(newJob(api.JobSpec{}, queuedStatus("c1", "carol"))); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over total capacity: got %v, want ErrQueueFull", err)
	}
}

func TestFairQueueRemove(t *testing.T) {
	q := newFairQueue(10, 5)
	for _, id := range []string{"a1", "a2"} {
		if err := q.push(newJob(api.JobSpec{}, queuedStatus(id, "alice"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.push(newJob(api.JobSpec{}, queuedStatus("b1", "bob"))); err != nil {
		t.Fatal(err)
	}
	if !q.remove("a1") {
		t.Fatal("remove a1 reported not found")
	}
	if q.remove("a1") {
		t.Fatal("removed a1 twice")
	}
	var order []string
	for j := q.pop(); j != nil; j = q.pop() {
		order = append(order, j.status.ID)
	}
	if got, want := strings.Join(order, ","), "a2,b1"; got != want {
		t.Fatalf("pop order after remove %s, want %s", got, want)
	}
}

// --- Execute: resume determinism ------------------------------------------

// interruptAfter returns an onChunk hook that cancels the context after n
// persisted chunks — a deterministic stand-in for kill -9 at a chunk boundary.
func interruptAfter(n int, cancel context.CancelFunc) func(done, total int) {
	calls := 0
	return func(done, total int) {
		calls++
		if calls == n {
			cancel()
		}
	}
}

// TestExecuteEvaluateResume interrupts a checkpointed evaluate job after its
// first chunk and reruns it in the same directory: the resumed run must finish
// from the checkpoint and produce an artifact byte-identical to an
// uninterrupted run's.
func TestExecuteEvaluateResume(t *testing.T) {
	spec := evalSpec(evalChunks)
	want, err := Execute(context.Background(), spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ck := &Checkpoints{Dir: t.TempDir()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = Execute(ctx, spec, ExecOptions{
		Checkpoints: ck,
		onChunk:     interruptAfter(1, cancel),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Execute: got %v, want context.Canceled", err)
	}
	if _, err := os.Stat(ck.machinePath()); err != nil {
		t.Fatalf("no machine checkpoint after interrupt: %v", err)
	}

	got, err := Execute(context.Background(), spec, ExecOptions{Checkpoints: ck})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed artifact differs from uninterrupted run:\n--- resumed ---\n%s--- straight ---\n%s", got, want)
	}
}

// TestExecuteCheckpointWriteFails: a machine checkpoint that cannot be
// written mid-job fails the job, naming the file, instead of running on
// without the resume state it promises.
func TestExecuteCheckpointWriteFails(t *testing.T) {
	ck := &Checkpoints{Dir: t.TempDir()}
	chunks := 0
	var blockErr error
	_, err := Execute(context.Background(), evalSpec(evalChunks), ExecOptions{
		Checkpoints: ck,
		onChunk: func(done, total int) {
			if chunks++; chunks == 1 {
				blockErr = blockPath(ck.machinePath())
			}
		},
	})
	if blockErr != nil {
		t.Fatal(blockErr)
	}
	if err == nil || !strings.Contains(err.Error(), "machine.ckpt") {
		t.Fatalf("Execute with machine.ckpt blocked after chunk 1: err %v, want one naming machine.ckpt", err)
	}
}

// TestExecuteSweepResume does the same for a sweep: interrupt after the first
// chunk of configurations, resume with a different worker count, and require
// the artifact byte-identical to an uninterrupted single-worker run. The job
// persists its results alone, no machine checkpoint.
func TestExecuteSweepResume(t *testing.T) {
	spec := sweepSpec()
	want, err := Execute(context.Background(), spec, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	ck := &Checkpoints{Dir: t.TempDir()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = Execute(ctx, spec, ExecOptions{
		Workers:     1,
		Checkpoints: ck,
		onChunk:     interruptAfter(1, cancel),
	})
	if err == nil {
		t.Fatal("interrupted Execute returned no error")
	}
	data, err := os.ReadFile(ck.partialPath())
	if err != nil {
		t.Fatalf("no partial result after interrupt: %v", err)
	}
	prefix, err := api.DecodeSweepResult(data)
	if err != nil {
		t.Fatalf("partial.json is not a sweep result: %v", err)
	}
	if len(prefix.Metrics) != DefaultSweepChunk || prefix.Indices[1] != spec.Stride {
		t.Fatalf("partial.json holds %d results at indices %v..., want the first chunk's %d at stride %d",
			len(prefix.Metrics), prefix.Indices[:2], DefaultSweepChunk, spec.Stride)
	}
	if _, err := os.Stat(ck.machinePath()); !os.IsNotExist(err) {
		t.Fatalf("a sweep job wrote a machine checkpoint (stat: %v)", err)
	}

	got, err := Execute(context.Background(), spec, ExecOptions{Workers: 4, Checkpoints: ck})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed sweep artifact differs from uninterrupted run")
	}
	res, err := api.DecodeSweepResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(res.Indices) || len(res.Metrics) == 0 {
		t.Fatalf("sweep artifact shape: %d metrics for %d indices", len(res.Metrics), len(res.Indices))
	}
}

// TestExecuteSweepRejectsForeignPartial: a partial.json torn mid-document,
// written for another benchmark or stride, or whose indices are not the
// sweep's first strided positions fails the resume, naming the file; the
// job never resumes into another sweep's bytes.
func TestExecuteSweepRejectsForeignPartial(t *testing.T) {
	spec := sweepSpec()
	ck := &Checkpoints{Dir: t.TempDir()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := Execute(ctx, spec, ExecOptions{Workers: 1, Checkpoints: ck, onChunk: interruptAfter(1, cancel)}); err == nil {
		t.Fatal("interrupted Execute returned no error")
	}
	data, err := os.ReadFile(ck.partialPath())
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := api.DecodeSweepResult(data)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(r *api.SweepResult)) []byte {
		r := prefix
		r.Indices = slices.Clone(prefix.Indices)
		f(&r)
		return api.Encode(r)
	}
	space := config.NewSpace(config.SpaceOptions{})
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"torn", data[:len(data)/2]},
		{"other benchmark", edit(func(r *api.SweepResult) { r.Benchmark = "stream" })},
		{"other stride", edit(func(r *api.SweepResult) {
			r.Stride = spec.Stride / 2
			r.Indices = space.Strided(r.Stride)[:len(r.Metrics)]
		})},
		{"shifted indices", edit(func(r *api.SweepResult) {
			for i := range r.Indices {
				r.Indices[i]++
			}
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := &Checkpoints{Dir: t.TempDir()}
			if err := os.WriteFile(ck.partialPath(), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := Execute(context.Background(), spec, ExecOptions{Workers: 1, Checkpoints: ck})
			if err == nil || !strings.Contains(err.Error(), "partial.json") || got != nil {
				t.Fatalf("resume from a %s partial.json: %d artifact bytes, err %v; want an error naming partial.json", tc.name, len(got), err)
			}
		})
	}
}

// --- Server: lifecycle over HTTP ------------------------------------------

// startRunner drives srv.Run in the background and returns a stop function
// that cancels it and waits for exit.
func startRunner(t *testing.T, srv *Server) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }() // stop() cancels the context and drains the exit error
	return func() {
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("runner exit: %v", err)
		}
	}
}

func TestServerHTTPLifecycle(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	stop := startRunner(t, srv)
	defer stop()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	spec := evalSpec(evalChunks)
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(api.Encode(spec)))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	st, err := api.DecodeJobStatus(body)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv.job(st.ID))

	resp, err = http.Get(hs.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	st, err = api.DecodeJobStatus(readAll(t, resp))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("job state %q (error %q), want done", st.State, st.Error)
	}

	resp, err = http.Get(hs.URL + "/v1/jobs/" + st.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	artifact := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact: status %d: %s", resp.StatusCode, artifact)
	}
	want, err := Execute(context.Background(), spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(artifact, want) {
		t.Fatal("daemon artifact differs from direct Execute for the same spec")
	}
	if st.ArtifactBytes != len(artifact) {
		t.Fatalf("status reports %d artifact bytes, artifact has %d", st.ArtifactBytes, len(artifact))
	}

	resp, err = http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list, err := api.DecodeJobList(readAll(t, resp))
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("job list %+v, want the one submitted job", list.Jobs)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if m := string(readAll(t, resp)); !strings.Contains(m, "server.jobs_completed") {
		t.Fatalf("/metrics missing server counters: %s", m)
	}

	resp, err = http.Get(hs.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close() //mctlint:ignore uncheckederr test helper; the read error is the one worth reporting
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServerAdmission: with no runner draining the queue, submissions beyond
// the caps are rejected and mapped to 429.
func TestServerAdmission(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir(), QueueCap: 2, PerClientCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("alice", evalSpec(1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("alice", evalSpec(1000)); !errors.Is(err, ErrClientQuota) {
		t.Fatalf("second job for alice: got %v, want ErrClientQuota", err)
	}
	if _, err := srv.Submit("bob", evalSpec(1000)); err != nil {
		t.Fatal(err)
	}

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(api.Encode(evalSpec(1000))))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d (%s), want 429", resp.StatusCode, body)
	}

	// A rejected submission must leave no job directory behind. (The total
	// cap is also at capacity here, and it is checked first.)
	if _, err := srv.Submit("alice", evalSpec(1000)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	records, err := srv.store.load()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("%d job dirs on disk, want 2 (rejected submissions must clean up)", len(records))
	}
}

// TestServerBadRequests: malformed, version-skewed, and invalid specs all
// fail at the boundary with 400.
func TestServerBadRequests(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for name, body := range map[string]string{
		"not json":     "{",
		"version skew": `{"v": 2, "kind": "sweep", "benchmark": "lbm", "accesses": 10}`,
		"missing kind": `{"v": 1}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if b := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, resp.StatusCode, b)
		}
	}
}

// TestServerCancelQueued: cancelling a queued job fails it without running it.
func TestServerCancelQueued(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Submit("alice", evalSpec(1000))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := api.DecodeJobStatus(readAll(t, resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.StateFailed || !strings.Contains(got.Error, "cancelled") {
		t.Fatalf("cancelled job status %+v, want failed/cancelled", got)
	}
	if srv.queue.depth() != 0 {
		t.Fatal("cancelled job still queued")
	}

	// Cancelling a finished job conflicts.
	resp, err = http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: status %d, want 409", resp.StatusCode)
	}
}

// TestServerCancelRunning: DELETE on a running job aborts its execution
// and fails it as cancelled by the client; afterwards the job's status and
// its event stream still answer, each with the terminal failed state.
func TestServerCancelRunning(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	// Far more instructions than the test ever lets it run.
	st, err := srv.Submit("alice", evalSpec(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	j := srv.job(st.ID)
	events, unsub := j.subscribe()
	defer unsub()
	stop := startRunner(t, srv)
	defer stop()
	for running := false; !running; {
		select {
		case e := <-events:
			running = e.Kind == "status" && e.Text == api.StateRunning
		case <-time.After(2 * time.Minute):
			t.Fatalf("job never started running: %+v", j.snapshot())
		}
	}

	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running job: status %d: %s", resp.StatusCode, body)
	}
	waitDone(t, j)

	resp, err = http.Get(hs.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := api.DecodeJobStatus(readAll(t, resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.StateFailed || !strings.Contains(got.Error, "cancelled") {
		t.Fatalf("cancelled running job status %+v, want failed/cancelled", got)
	}

	resp, err = http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "data: ") {
		t.Fatalf("events of the cancelled job: %q, want one terminal frame", data)
	}
	e, err := api.DecodeEvent([]byte(strings.TrimPrefix(lines[0], "data: ")))
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "status" || e.Text != api.StateFailed {
		t.Fatalf("events frame %+v, want terminal failed status", e)
	}
}

// TestServerRestartResume is the kill -9 acceptance check at the server
// layer: a job interrupted mid-run (state "running" on disk, checkpoint
// present) must be re-adopted by a new Server, resume from the checkpoint,
// and finish with an artifact byte-identical to an uninterrupted run — with
// its Resumes count recording the restart.
func TestServerRestartResume(t *testing.T) {
	spec := evalSpec(evalChunks)
	want, err := Execute(context.Background(), spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Fabricate the post-crash state deterministically: a job directory whose
	// status says "running" and whose checkpoint covers exactly one chunk.
	stateDir := t.TempDir()
	st, err := openStore(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	const id = "j000000"
	if err := st.createJob(id, spec); err != nil {
		t.Fatal(err)
	}
	status := api.JobStatus{V: api.Version, ID: id, Kind: spec.Kind, Client: "alice", State: api.StateRunning}
	if err := st.writeStatus(status); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = Execute(ctx, spec, ExecOptions{
		Checkpoints: &Checkpoints{Dir: st.jobDir(id)},
		onChunk:     interruptAfter(1, cancel),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: got %v, want context.Canceled", err)
	}

	srv, err := New(Options{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	j := srv.job(id)
	if j == nil {
		t.Fatal("restarted server does not know the job")
	}
	if got := j.snapshot(); got.State != api.StateQueued || got.Resumes != 1 {
		t.Fatalf("re-adopted job is %s with %d resumes, want queued with 1", got.State, got.Resumes)
	}

	stop := startRunner(t, srv)
	defer stop()
	waitDone(t, j)

	final := j.snapshot()
	if final.State != api.StateDone {
		t.Fatalf("resumed job state %q (error %q), want done", final.State, final.Error)
	}
	if final.Resumes != 1 {
		t.Fatalf("resumed job records %d resumes, want 1", final.Resumes)
	}
	got, err := srv.store.readArtifact(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("artifact after restart differs from uninterrupted run")
	}
	// The resume state must be cleaned up once the artifact is durable.
	if _, err := os.Stat((&Checkpoints{Dir: st.jobDir(id)}).machinePath()); !os.IsNotExist(err) {
		t.Fatalf("machine checkpoint not cleaned up after completion: %v", err)
	}
}

// TestServerArtifactWriteFails: when a file the daemon persists or resumes
// from is unusable, the job fails with an error naming that file rather
// than reporting done or resuming into wrong bytes. A non-empty directory
// where jobs/<id>/artifact.json goes makes the atomic rename fail after the
// job has computed its result; one where partial.json goes fails a sweep's
// first chunk write; a corrupt machine.ckpt fails an evaluate job before
// its first chunk.
func TestServerArtifactWriteFails(t *testing.T) {
	corrupt := func(path string) error { return os.WriteFile(path, []byte("not a checkpoint"), 0o644) }
	for _, tc := range []struct {
		file  string
		spec  api.JobSpec
		fault func(path string) error
	}{
		{"artifact.json", evalSpec(evalChunks), blockPath},
		{"machine.ckpt", evalSpec(evalChunks), corrupt},
		{"partial.json", sweepSpec(), blockPath},
	} {
		t.Run(tc.file, func(t *testing.T) {
			srv, err := New(Options{StateDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			st, err := srv.Submit("alice", tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.fault(filepath.Join(srv.store.jobDir(st.ID), tc.file)); err != nil {
				t.Fatal(err)
			}
			failed := srv.reg.Counter("server.jobs_failed")
			completed := srv.reg.Counter("server.jobs_completed")
			stop := startRunner(t, srv)
			j := srv.job(st.ID)
			waitDone(t, j)
			stop() // the terminal status reaches disk after j.done closes

			got := j.snapshot()
			if got.State != api.StateFailed || !strings.Contains(got.Error, tc.file) {
				t.Fatalf("job with an unusable %s is %s (error %q), want failed naming the file", tc.file, got.State, got.Error)
			}
			if got.ArtifactBytes != 0 {
				t.Errorf("failed job reports %d artifact bytes", got.ArtifactBytes)
			}
			if tc.file == "machine.ckpt" && got.Done != 0 {
				t.Errorf("job resumed from a corrupt checkpoint: %d instructions done", got.Done)
			}
			if failed.Value() != 1 || completed.Value() != 0 {
				t.Errorf("server.jobs_failed %d, server.jobs_completed %d; want 1 and 0", failed.Value(), completed.Value())
			}
			records, err := srv.store.load()
			if err != nil {
				t.Fatal(err)
			}
			if len(records) != 1 || records[0].status.State != api.StateFailed {
				t.Fatalf("status on disk %+v, want the one job failed", records)
			}

			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()
			resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/artifact")
			if err != nil {
				t.Fatal(err)
			}
			if body := readAll(t, resp); resp.StatusCode != http.StatusConflict {
				t.Fatalf("artifact of the failed job: status %d (%s), want 409", resp.StatusCode, body)
			}
		})
	}
}

// TestServerStatusWriteFails: a job whose status.json cannot be written
// once it starts running fails naming the file, and both counters show it.
func TestServerStatusWriteFails(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Submit("alice", evalSpec(20_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := blockPath(filepath.Join(srv.store.jobDir(st.ID), "status.json")); err != nil {
		t.Fatal(err)
	}
	stop := startRunner(t, srv)
	j := srv.job(st.ID)
	waitDone(t, j)
	stop()

	if got := j.snapshot(); got.State != api.StateFailed || !strings.Contains(got.Error, "status.json") {
		t.Fatalf("job with a blocked status.json is %s (error %q), want failed naming the file", got.State, got.Error)
	}
	if n := srv.reg.Counter("server.jobs_failed").Value(); n != 1 {
		t.Errorf("server.jobs_failed %d, want 1", n)
	}
	if n := srv.reg.Counter("server.persist_errors").Value(); n < 1 {
		t.Errorf("server.persist_errors %d, want at least 1", n)
	}
}

// TestSubmitPersistFailureLeavesNoJob: a Submit that cannot persist the
// job's spec or status removes the job's directory, so the next New on the
// state directory starts, with no job listed.
func TestSubmitPersistFailureLeavesNoJob(t *testing.T) {
	for _, file := range []string{"spec.json", "status.json"} {
		t.Run(file, func(t *testing.T) {
			stateDir := t.TempDir()
			srv, err := New(Options{StateDir: stateDir})
			if err != nil {
				t.Fatal(err)
			}
			if err := blockPath(filepath.Join(srv.store.jobDir(jobID(1)), file)); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Submit("alice", evalSpec(20_000)); err == nil {
				t.Fatalf("Submit with %s blocked succeeded", file)
			}
			srv2, err := New(Options{StateDir: stateDir})
			if err != nil {
				t.Fatalf("New after a failed Submit: %v", err)
			}
			if len(srv2.order) != 0 {
				t.Fatalf("New after a failed Submit lists jobs %v, want none", srv2.order)
			}
		})
	}
}

// TestServerRestartKeepsHistory: finished jobs stay poll- and fetchable
// across restarts.
func TestServerRestartKeepsHistory(t *testing.T) {
	stateDir := t.TempDir()
	srv, err := New(Options{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Submit("alice", evalSpec(20_000))
	if err != nil {
		t.Fatal(err)
	}
	stop := startRunner(t, srv)
	waitDone(t, srv.job(st.ID))
	stop()
	artifact, err := srv.store.readArtifact(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Options{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	j := srv2.job(st.ID)
	if j == nil || j.snapshot().State != api.StateDone {
		t.Fatalf("restarted server lost the finished job")
	}
	again, err := srv2.store.readArtifact(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(artifact, again) {
		t.Fatal("artifact changed across restart")
	}
	// And a fresh submission must not collide with the recovered ID.
	st2, err := srv2.Submit("alice", evalSpec(1000))
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatalf("ID %s reused across restart", st.ID)
	}
}

// TestServerSSE: the events stream always ends with the terminal status
// frame, whether the subscriber joins before, during, or after the run.
func TestServerSSE(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	st, err := srv.Submit("alice", evalSpec(evalChunks))
	if err != nil {
		t.Fatal(err)
	}

	// Subscribe while the job is still queued, then start the runner.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //mctlint:ignore uncheckederr test stream; the scan error is the one worth reporting
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	stop := startRunner(t, srv)
	defer stop()

	var last api.Event
	frames := 0
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		e, err := api.DecodeEvent([]byte(strings.TrimPrefix(line, "data: ")))
		if err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		frames++
		last = e
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatal("no SSE frames received")
	}
	if last.Kind != "status" || last.Text != api.StateDone {
		t.Fatalf("last frame %+v, want terminal done status", last)
	}

	// A subscriber joining after completion gets exactly the terminal frame.
	resp2, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp2)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "data: ") {
		t.Fatalf("late subscriber got %q, want one terminal frame", data)
	}
	e, err := api.DecodeEvent([]byte(strings.TrimPrefix(lines[0], "data: ")))
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "status" || e.Text != api.StateDone {
		t.Fatalf("late subscriber frame %+v, want terminal done status", e)
	}
}

// TestCLIDaemonParity: Execute without checkpoints (the mct -job path) and a
// daemon job produce byte-identical artifacts for the same sweep spec.
func TestCLIDaemonParity(t *testing.T) {
	spec := sweepSpec()
	cli, err := Execute(context.Background(), spec, ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(Options{StateDir: t.TempDir(), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Submit("ci", spec)
	if err != nil {
		t.Fatal(err)
	}
	stop := startRunner(t, srv)
	defer stop()
	waitDone(t, srv.job(st.ID))
	daemon, err := srv.store.readArtifact(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cli, daemon) {
		t.Fatal("daemon artifact differs from CLI Execute for the same spec")
	}
}

// depth returns the total queued backlog.
func (q *fairQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// TestExperimentJobDropsSweepCache: every experiment job owns its sweep
// cache, so its in-memory sweeps do not outlive the job and a daemon's
// memory does not grow with every distinct sweep key its jobs touch. In a
// daemon, the cache's disk layer under the state directory carries
// completed sweeps to the next job: a second identical job computes none.
// Without persistence, every job computes the same non-zero count.
func TestExperimentJobDropsSweepCache(t *testing.T) {
	spec := api.JobSpec{V: api.Version, Kind: api.KindExperiment, Experiment: "table4", Quick: true}

	srv, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	stop := startRunner(t, srv)
	defer stop()
	computed := srv.reg.Counter("experiments.sweeps_computed")
	var daemon [2]uint64
	for i := range daemon {
		before := computed.Value()
		st, err := srv.Submit("ci", spec)
		if err != nil {
			t.Fatal(err)
		}
		j := srv.job(st.ID)
		waitDone(t, j)
		if got := j.snapshot(); got.State != api.StateDone {
			t.Fatalf("job %d: state %q (%s)", i, got.State, got.Error)
		}
		daemon[i] = computed.Value() - before
	}
	if daemon[0] == 0 || daemon[1] != 0 {
		t.Errorf("daemon jobs computed %v sweeps, want a non-zero count and then 0", daemon)
	}

	reg := obs.NewRegistry()
	computed = reg.Counter("experiments.sweeps_computed")
	var rises [2]uint64
	for i := range rises {
		before := computed.Value()
		if _, err := Execute(context.Background(), spec, ExecOptions{Obs: reg}); err != nil {
			t.Fatal(err)
		}
		rises[i] = computed.Value() - before
	}
	if rises[0] == 0 || rises[1] != rises[0] {
		t.Errorf("sweeps computed per job without persistence = %v, want the same non-zero count on both runs", rises)
	}
}

// TestServerObsRegistersEachField: newServerObs registers one name per
// field (every field is an instrument), so no two fields share, and merge
// into, one metric.
func TestServerObsRegistersEachField(t *testing.T) {
	r := obs.NewRegistry()
	fields := reflect.TypeOf(newServerObs(r))
	if got, want := len(r.Names()), fields.NumField(); got != want {
		t.Errorf("%d names registered for %d instrument fields: %v", got, want, r.Names())
	}
}
