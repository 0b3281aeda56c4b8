package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"mct/api"
	"mct/internal/config"
	"mct/internal/server"
	"mct/internal/sim"
	"mct/internal/trace"
)

// The traced run's serve unit drives the mctd binary over loopback HTTP
// with two closed-loop clients, each keeping one job outstanding: submit,
// follow the job's event stream to its terminal frame, fetch the artifact.
// It is the only part of the benchmark that crosses api decode/encode, the
// fair queue, the durable store, gob checkpoints and the HTTP surface.
// Experiment jobs are left out because they reuse the sweep disk cache and
// would measure the cache. It is not an end-to-end workload: on a shared
// two-core host the job latency's run-to-run spread exceeded the bound.

const (
	serveClients     = 2
	serveEvalInsts   = 2_000_000 // instructions per evaluate job
	serveSweepAccess = 2000
	serveSweepStride = 20 // 102 configurations, a ~150 KB artifact
)

// serveBenchmarks are the evaluate jobs' benchmarks, each run once on the
// NVM-only and once on the DRAM-cache hierarchy; serveSweepBenchmarks are
// the sweep jobs'. The pool's shape is fixed, so every seed asks the daemon
// for the same amount of simulation; the seed draws the evaluated
// configurations.
var (
	serveBenchmarks      = []string{"zeusmp", "ocean", "gups", "lbm"}
	serveSweepBenchmarks = []string{"lbm", "zeusmp"}
)

// serveJob is one job spec of the pool with its reference artifact.
type serveJob struct {
	spec     api.JobSpec
	body     []byte        // the encoded spec, as submitted
	artifact []byte        // server.Execute's artifact for spec
	execute  time.Duration // how long that direct server.Execute took
}

// servePool draws the seed's job pool: the evaluate jobs first, then the
// sweep jobs.
func servePool(seed int64) []api.JobSpec {
	r := rand.New(rand.NewSource(seed))
	space := config.NewSpace(config.SpaceOptions{})
	var pool []api.JobSpec
	for _, b := range serveBenchmarks {
		for _, hybrid := range []bool{false, true} {
			c := api.FromConfig(space.At(r.Intn(space.Len())))
			pool = append(pool, api.JobSpec{
				V: api.Version, Kind: api.KindEvaluate, Benchmark: b,
				Config: &c, Insts: serveEvalInsts, DRAMCache: hybrid,
			})
		}
	}
	for _, b := range serveSweepBenchmarks {
		pool = append(pool, api.JobSpec{
			V: api.Version, Kind: api.KindSweep, Benchmark: b,
			Accesses: serveSweepAccess, Stride: serveSweepStride,
		})
	}
	return pool
}

// serveJobFor returns the pool index of client c's k-th job. Each client
// alternates evaluate and sweep jobs, out of phase with the other client,
// so the daemon always holds one job of each kind.
func serveJobFor(c, k int) int {
	evals := 2 * len(serveBenchmarks)
	if (k+c)%2 == 0 {
		return (k + c*evals/2) % evals
	}
	return evals + (k/2+c)%len(serveSweepBenchmarks)
}

// prepareServeJobs computes every pool job's reference artifact with a
// direct server.Execute (no checkpoints).
func prepareServeJobs(ctx context.Context, seed int64, workers int) ([]serveJob, error) {
	var jobs []serveJob
	for _, spec := range servePool(seed) {
		start := time.Now()
		art, err := server.Execute(ctx, spec, server.ExecOptions{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("reference %s %s: %w", spec.Kind, spec.Benchmark, err)
		}
		jobs = append(jobs, serveJob{spec: spec, body: api.Encode(spec), artifact: art, execute: time.Since(start)})
	}
	return jobs, nil
}

// serveEvalMachine builds and warms the machine an evaluate job runs on.
func serveEvalMachine(spec api.JobSpec) (*sim.Machine, error) {
	cfg, err := spec.Config.Config()
	if err != nil {
		return nil, err
	}
	ts, err := trace.ByName(spec.Benchmark)
	if err != nil {
		return nil, err
	}
	so := sim.DefaultOptions()
	so.Tiers = config.TierConfig{DRAMCache: spec.DRAMCache, DRAMPromoteThreshold: spec.DRAMPromoteThreshold}
	m, err := sim.NewMachine(ts, cfg, so)
	if err != nil {
		return nil, err
	}
	m.Warmup(sim.DefaultWarmupAccesses)
	return m, nil
}

// daemon is one running mctd process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been waited for
}

// startDaemon launches mctd on a free loopback port with a fresh state
// directory and returns once /healthz answers.
func startDaemon(binDir, stateDir string, workers int) (*daemon, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, "mctd"), "-addr", "127.0.0.1:0", "-state", stateDir,
		"-workers", fmt.Sprint(workers))
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even a killed one.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		// The exit status of a daemon we stop ourselves says nothing.
		_ = cmd.Wait()
		close(d.done)
	}()
	addrFile := filepath.Join(stateDir, "mctd.addr")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return nil, errors.New("mctd exited during start-up")
		default:
		}
		if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			d.url = "http://" + strings.TrimSpace(string(data))
			if resp, err := http.Get(d.url + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, errors.New("mctd did not become healthy within 30s")
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	// Either signal fails only when the process is already gone.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// jobTimes are the client-side timestamps of one job.
type jobTimes struct {
	start     time.Time
	submitted time.Time // POST returned
	running   time.Time // first "running" status frame
	finished  time.Time // terminal status frame
	fetched   time.Time // artifact read
}

// client is one closed-loop API client.
type client struct {
	name string
	url  string
	http *http.Client
}

// runJob submits one job, follows its event stream to the terminal frame
// and fetches the artifact.
func (c *client) runJob(ctx context.Context, body []byte) ([]byte, jobTimes, error) {
	var jt jobTimes
	jt.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, jt, err
	}
	req.Header.Set("X-MCT-Client", c.name)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, jt, err
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, jt, err
	}
	if resp.StatusCode != http.StatusCreated {
		return nil, jt, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(doc))
	}
	st, err := api.DecodeJobStatus(doc)
	if err != nil {
		return nil, jt, err
	}
	jt.submitted = time.Now()

	if err := c.follow(ctx, st.ID, &jt); err != nil {
		return nil, jt, err
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/jobs/"+st.ID+"/artifact", nil)
	if err != nil {
		return nil, jt, err
	}
	resp, err = c.http.Do(req)
	if err != nil {
		return nil, jt, err
	}
	art, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, jt, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, jt, fmt.Errorf("artifact %s: %s", st.ID, resp.Status)
	}
	jt.fetched = time.Now()
	return art, jt, nil
}

// follow reads the job's SSE stream until its terminal status frame.
func (c *client) follow(ctx context.Context, id string, jt *jobTimes) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		if ev.Kind != "status" {
			continue
		}
		switch ev.Text {
		case api.StateRunning:
			if jt.running.IsZero() {
				jt.running = time.Now()
			}
		case api.StateDone:
			jt.finished = time.Now()
			if jt.running.IsZero() {
				jt.running = jt.submitted
			}
			return nil
		case api.StateFailed:
			return fmt.Errorf("job %s failed", id)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events %s: stream ended before a terminal frame", id)
}

// completedJob is one finished job as a client saw it.
type completedJob struct {
	job   *serveJob
	times jobTimes
}

// driveClients runs the closed loop: client c's k-th job is next(c, k), and
// the client stops when next returns nil. Each client submits its next job
// only after the previous one's artifact arrived. Failed and wrong-output
// jobs are counted, and the loop goes on. With spans set, each job's phases
// are recorded.
func driveClients(ctx context.Context, url string, spans *spanLog, next func(c, k int) *serveJob) ([]completedJob, tally, time.Duration) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	defer hc.CloseIdleConnections()
	var (
		mu   sync.Mutex
		done []completedJob
		t    tally
		wg   sync.WaitGroup
	)
	start := time.Now()
	for ci := 0; ci < serveClients; ci++ {
		c := &client{name: fmt.Sprintf("bench-%d", ci), url: url, http: hc}
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				j := next(ci, k)
				if j == nil {
					return
				}
				art, jt, err := c.runJob(ctx, j.body)
				ok := err == nil && bytes.Equal(art, j.artifact)
				if err != nil {
					fmt.Fprintf(os.Stderr, "serve %s: %v\n", c.name, err)
				} else if !ok {
					fmt.Fprintf(os.Stderr, "serve %s: %s %s artifact differs from server.Execute\n", c.name, j.spec.Kind, j.spec.Benchmark)
				}
				if ok && spans != nil {
					op := spans.op()
					root := spans.add(op, 0, "job "+j.spec.Kind, jt.start, jt.fetched)
					spans.add(op, root, "server.submit", jt.start, jt.submitted)
					spans.add(op, root, "server.queue_wait", jt.submitted, jt.running)
					spans.add(op, root, "server.run", jt.running, jt.finished)
					spans.add(op, root, "server.fetch", jt.finished, jt.fetched)
				}
				mu.Lock()
				t.attempted++
				if ok {
					done = append(done, completedJob{job: j, times: jt})
				} else {
					t.failed++
				}
				mu.Unlock()
				if err != nil && ctx.Err() != nil {
					return
				}
				if err != nil {
					time.Sleep(10 * time.Millisecond) // back off after a refusal
				}
			}
		}()
	}
	wg.Wait()
	return done, t, time.Since(start)
}
