// Command perfbench is the repository's benchmark. It generates one of
// four workloads from a seed, takes it from generated inputs to a serving
// stack, checks that every answer is correct, drives it closed-loop for a
// fixed time, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as the last line of its output. See
// README.md for the workloads and the metric table.
//
//	go build -o perfbench . && ./perfbench --workload scan --seed 1 --seconds 8 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	profile  bool
	tmp      string // snapshots, logs and spools
}

// outDir holds spans, layer files, count records and profiles.
var outDir = filepath.Join(".bench_build", "out")

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *report) error{
	"scan": func(c config, r *report) error {
		return runServed(c, r, func(s int64) *fixture { return scanFixture(s, 1) })
	},
	"lookup": func(c config, r *report) error { return runServed(c, r, lookupFixture) },
	"dist_scan": func(c config, r *report) error {
		return runServed(c, r, func(s int64) *fixture { return scanFixture(s, distWorkers) })
	},
	"churn": runChurn,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "scan, lookup, churn or dist_scan")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 8, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	fs.BoolVar(&cfg.profile, "profile", false, "write CPU and allocation profiles of the timed phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (scan, lookup, churn, dist_scan), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg.trace = trace == 1
	cfg.tmp = filepath.Join(".bench_build", "tmp", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if cfg.profile {
		// Allocation sampling starts with the timed phase (see timed).
		runtime.MemProfileRate = 0
	}
	for _, d := range []string{outDir, cfg.tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	defer os.RemoveAll(cfg.tmp)
	rep := newReport(stdout)
	rep.notef("workload %s seed %d seconds %d trace %v gomaxprocs %d temp-fs %s",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), fsType(cfg.tmp))
	if err := runner(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
	}
	if err := rep.finish(declared); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// The result line carries exactly these metrics: endToEnd on an untraced
// run, perLayer on a traced one. BENCHMARK.json declares the same lists.
var (
	endToEnd = []string{"setup_s", "requests_per_s", "tuples_per_s", "latency_p50_ms", "first_tuple_p50_ms", "space_bytes", "heap_bytes"}
	perLayer = []string{
		"latency_p99_ms", "first_tuple_p99_ms",
		"join.instance_s", "fractional.cover_s", "decomp.search_s", "compile.build_s", "compile.entries",
		"core.snapshot_write_s", "core.snapshot_open_s",
		"core.query_tuples_per_s", "core.query_allocs_per_tuple", "core.first_tuple_us", "core.delay_ops_max", "core.delay_max_us",
		"core.server_tuples_per_s", "core.server_allocs_per_tuple", "core.server_wait_us",
		"httpserve.encode_binary_tuples_per_s", "httpserve.encode_ndjson_tuples_per_s", "httpserve.encode_allocs_per_tuple",
		"httpserve.wire_bytes_per_tuple", "httpserve.flushes_per_request", "httpserve.decode_tuples_per_s",
		"httpserve.handler_us", "httpserve.client_us", "httpserve.empty_request_us", "httpserve.allocs_per_request",
		"httpserve.cache_hit_ratio", "httpserve.cache_evictions", "httpserve.cache_coalesced",
		"httpserve.cache_hit_us", "httpserve.cache_miss_us",
		"runtime.gc_cycles", "runtime.gc_pause_total_ms", "trace.overhead_pct",
	}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the human-readable lines and the result.
type report struct {
	w     io.Writer
	res   result
	names []string // metrics in the order they were added
	extra map[string]metric
}

func newReport(w io.Writer) *report {
	return &report{w: w, res: result{Correct: true, Metrics: map[string]metric{}}, extra: map[string]metric{}}
}

func (r *report) notef(format string, args ...any) { fmt.Fprintf(r.w, format+"\n", args...) }

// add records a metric of the result line.
func (r *report) add(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{v, unit}
	r.names = append(r.names, name)
}

// addExtra records a metric printed and written to the layers file but
// kept off the result line, because the workload alone has the layer.
func (r *report) addExtra(name string, v float64, unit string) {
	r.extra[name] = metric{v, unit}
}

// count adds attempted and failed operations.
func (r *report) count(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	r.notef("FAIL: "+format, args...)
}

// finish checks that the result carries exactly the declared metrics,
// then prints the metric lines and the result line.
func (r *report) finish(declared []string) error {
	if r.res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	if len(r.res.Metrics) != len(declared) {
		return fmt.Errorf("measured %d metrics, %d are declared", len(r.res.Metrics), len(declared))
	}
	for _, name := range declared {
		if _, ok := r.res.Metrics[name]; !ok {
			return fmt.Errorf("declared metric %s was not measured", name)
		}
	}
	if r.res.Failed > 0 {
		r.res.Correct = false
	}
	for _, n := range r.names {
		m := r.res.Metrics[n]
		r.notef("%-40s %16.6g %s", n, m.Value, m.Unit)
	}
	extra := make([]string, 0, len(r.extra))
	for n := range r.extra {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	for _, n := range extra {
		m := r.extra[n]
		r.notef("%-40s %16.6g %s   (this workload only)", n, m.Value, m.Unit)
	}
	r.notef("failed_ratio %d/%d", r.res.Failed, r.res.Attempted)
	b, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(r.w, string(b))
	return err
}

// heapAfterGC is the live heap once garbage is collected.
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// timed runs phase, under CPU and allocation profiling when asked.
func timed(cfg config, phase func()) error {
	if !cfg.profile {
		phase()
		return nil
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-%d", cfg.workload, cfg.seed))
	cpu, err := os.Create(base + "-cpu.pprof")
	if err != nil {
		return err
	}
	defer cpu.Close()
	if err := pprof.StartCPUProfile(cpu); err != nil {
		return err
	}
	runtime.MemProfileRate = 512 * 1024
	phase()
	pprof.StopCPUProfile()
	runtime.MemProfileRate = 0
	alloc, err := os.Create(base + "-alloc.pprof")
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(alloc, 0); err != nil {
		alloc.Close()
		return err
	}
	if err := alloc.Close(); err != nil {
		return err
	}
	return cpu.Close()
}

// fsType names the filesystem holding dir, for the report.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
