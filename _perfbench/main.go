// Command perfbench is the repository benchmark: it drives the MCT
// simulator, the MCT runtime and the mctd daemon from the outside, through
// their public functions and the daemon's HTTP API, and prints one JSON
// result line.
//
//	perfbench --workload sweep-nvm|sweep-llc --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics of one workload. With
// --trace 1 it runs the per-layer ledger (see ledger.go) and reports how much
// slower the workload runs with spans recorded. Every workload checks its
// outputs: operations that fail or return wrong bytes are counted, never
// fatal. The last line of standard output is the result object; progress
// and diagnostics go to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload gets from the command line.
type env struct {
	seed    int64
	seconds float64
	// binDir holds the mctd binary built from this checkout.
	binDir string
	// workDir is scratch space inside the checkout (daemon state, spans,
	// profiles); it is removed when the benchmark ends.
	workDir string
	workers int
}

// tally counts attempted and failed operations. An operation fails when it
// returns an error, is refused, or produces output that does not match its
// reference.
type tally struct {
	attempted, failed int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 9

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: sweep-nvm or sweep-llc")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1 runs the per-layer ledger instead of the end-to-end metrics")
		binDir   = flag.String("bin", ".bench_build/bin", "directory holding the mctd binary")
		work     = flag.String("work", ".bench_build/work", "scratch directory for daemon state, spans and profiles")
		golden   = flag.Int("write-golden", 0, "regenerate golden.json for seeds [0, n) and exit")
	)
	flag.Parse()
	if *golden > 0 {
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want sweep-nvm or sweep-llc)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// The sweep disk cache would turn the sweep workload into a file read.
	os.Unsetenv("MCT_SWEEP_CACHE")

	workDir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(workDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	bin, err := filepath.Abs(*binDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := env{seed: *seed, seconds: *seconds, binDir: bin, workDir: workDir, workers: runtime.NumCPU()}

	// A stop signal cancels the run, so the daemon and any subprocess are
	// stopped and waited for before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var res result
	if *traced == 1 {
		res, err = runLedger(ctx, *workload, w, e)
	} else {
		res, err = w.measure(ctx, e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if res.Attempted > 0 {
		fmt.Fprintf(os.Stderr, "error_rate %.6f (%d of %d operations failed)\n",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// workload is one benchmark workload. measure returns the end-to-end
// metrics; traceOverhead runs one unit of the workload's work — with spans
// recorded when spans is non-nil — and returns its time, for the ledger's
// trace_overhead row.
type workload struct {
	measure       func(ctx context.Context, e env) (result, error)
	traceOverhead func(ctx context.Context, e env, in *inputs, spans *spanLog) (time.Duration, tally, error)
}

var workloads = map[string]workload{
	"sweep-nvm": {measure: measureSweep(sweepNVMLegs), traceOverhead: sweepTraceOverhead(sweepNVMLegs)},
	"sweep-llc": {measure: measureSweep(sweepLLCLegs), traceOverhead: sweepTraceOverhead(sweepLLCLegs)},
}

// endToEnd assembles the end-to-end metric set every workload reports.
type endToEnd struct {
	setup  []time.Duration
	rssKiB []float64 // resident-set samples
	// Per-iteration rates; the reported value is their median.
	maccessPerS, minstsPerS, opsPerS []float64
	latencies                        []time.Duration
}

func (m endToEnd) result(t tally) result {
	return result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":           {median(durSeconds(m.setup)), "s"},
			"rss_p95_mib":       {quantile(m.rssKiB, 0.95) / 1024, "MiB"},
			"sim_maccess_per_s": {median(m.maccessPerS), "Maccess/s"},
			"sim_minsts_per_s":  {median(m.minstsPerS), "Minst/s"},
			"ops_per_s":         {median(m.opsPerS), "1/s"},
			"op_latency_p50_ms": {quantile(durMillis(m.latencies), 0.5), "ms"},
			"op_latency_p90_ms": {quantile(durMillis(m.latencies), 0.9), "ms"},
		},
	}
}

// rssKiB reads VmRSS (the resident set) of a process from /proc.
func rssKiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// sampleRSS samples pid's resident set every 100 ms until the returned stop
// function is called; stop returns the samples. The peak itself (VmHWM)
// hinges on where garbage collections fall relative to allocation bursts,
// so the metric is a high percentile of the samples instead.
func sampleRSS(pid int) (stop func() ([]float64, error)) {
	quit := make(chan struct{})
	type out struct {
		samples []float64
		err     error
	}
	res := make(chan out, 1)
	go func() {
		var o out
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			v, err := rssKiB(pid)
			if err != nil {
				o.err = err
				res <- o
				return
			}
			o.samples = append(o.samples, v)
			select {
			case <-quit:
				res <- o
				return
			case <-tick.C:
			}
		}
	}()
	return func() ([]float64, error) {
		close(quit)
		o := <-res
		return o.samples, o.err
	}
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func durMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
