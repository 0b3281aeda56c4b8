// Command mctd is the MCT job-server daemon: it serves the versioned
// HTTP/JSON job API (package api) over a durable state directory, so
// sweeps, experiments, and single evaluations run as asynchronous,
// resumable jobs instead of one-shot CLI invocations.
//
//	mctd -state /var/lib/mctd                 # serve on 127.0.0.1:8080
//	mctd -addr 127.0.0.1:0 -state ./state     # pick a free port (written to state/mctd.addr)
//
// Endpoints:
//
//	POST   /v1/jobs                submit a job spec       → 201 JobStatus (429 when full)
//	GET    /v1/jobs                list jobs               → JobList
//	GET    /v1/jobs/{id}           poll one job            → JobStatus
//	DELETE /v1/jobs/{id}           cancel a job            → JobStatus
//	GET    /v1/jobs/{id}/artifact  fetch the result        → artifact document (409 until done)
//	GET    /v1/jobs/{id}/events    progress stream         → SSE of api.Event frames
//	GET    /metrics                obs registry            → JSON (Registry.DumpAllJSON)
//	GET    /healthz                liveness                → {"ok":true}
//
// Jobs persist under the state directory and survive the process: on
// restart, unfinished jobs re-enter the queue and resume from their last
// checkpoint. SIGINT/SIGTERM shut down gracefully — the current job
// checkpoint stays consistent and resumes on the next start. Artifacts are
// byte-identical to `mct -job` on the same spec, at any worker count,
// killed or not.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mct/internal/server"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mctd:", err)
	os.Exit(1)
}

// checkFlags rejects negative counts, which server.New would otherwise
// read as the defaults.
func checkFlags(workers, queueCap, perClient int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", workers}, {"queue-cap", queueCap}, {"per-client", perClient}} {
		if f.v < 0 {
			return fmt.Errorf("-%s %d: want 0 (the default) or a positive count", f.name, f.v)
		}
	}
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		state     = flag.String("state", "mctd-state", "durable state directory")
		workers   = flag.Int("workers", 0, "intra-job parallel workers (0 = GOMAXPROCS)")
		queueCap  = flag.Int("queue-cap", 0, "max queued jobs in total (0 = default)")
		clientCap = flag.Int("per-client", 0, "max queued jobs per client (0 = default)")
	)
	flag.Parse()
	if err := checkFlags(*workers, *queueCap, *clientCap); err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := server.New(server.Options{
		StateDir:     *state,
		Workers:      *workers,
		QueueCap:     *queueCap,
		PerClientCap: *clientCap,
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// The resolved address (meaningful with port 0) goes to a well-known
	// file so scripts can find the daemon they just started.
	if err := os.WriteFile(filepath.Join(*state, "mctd.addr"), []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("mctd: listening on http://%s (state %s)\n", ln.Addr(), *state)

	hs := &http.Server{Handler: srv.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }() // Serve returns on Shutdown below; the send is drained before exit

	// The runner owns the main goroutine; it returns once ctx is cancelled
	// and the in-flight job has reached a consistent checkpoint.
	runErr := srv.Run(ctx)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "mctd: shutdown:", err)
	}
	<-httpDone

	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		fail(runErr)
	}
	fmt.Println("mctd: stopped")
}
