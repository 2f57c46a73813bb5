// Command perfbench is the repository's wall-clock benchmark.  It drives
// the packet-filter code only through the public functions of its
// packages and prints one JSON result line:
//
//	bash perfbench/run.sh --workload sim-mix --seed 1 --seconds 10 --trace 0
//
// Every measured repetition runs in a fresh child process (this same
// binary with -child), because a simulation universe has no teardown and
// a parked process would leak it into the next repetition.  The parent
// spawns children until their measured time adds up to --seconds and
// reports the median of each metric over the children.  --trace 1 adds
// one traced child (benchmark-side spans, CPU profile, per-layer replay
// calls) and reports per-layer metrics instead.  README.md has the
// workloads, metrics and the oracle.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// repResult is what one child process reports for one repetition.
type repResult struct {
	SetupS  []float64 `json:"setup_s"` // one entry per set-up in the child
	Packets int       `json:"packets"` // frames sent in the measured phase
	WallS   float64   `json:"wall_s"`  // measured-phase wall time
	P50us   float64   `json:"p50_us"`
	P99us   float64   `json:"p99_us"`
	OK      int       `json:"ok"`     // frames whose outcome matched the oracle
	Errors  []string  `json:"errors"` // reconciliation failures
	HeapMB  float64   `json:"heap_mb"`
	// Counts are exact program counters; for a simulated workload
	// they must repeat between two children given the same seed.
	Counts map[string]float64 `json:"counts"`
	// Layer holds per-layer metrics; a replay child adds the span and
	// replay figures to the counter-derived ones.
	Layer map[string]float64 `json:"layer"`
	// Samples counts a traced child's CPU-profile samples per layer,
	// and CPUs is the process CPU time they were drawn from.
	Samples map[string]float64 `json:"samples,omitempty"`
	CPUs    float64            `json:"cpu_s,omitempty"`
}

func (r *repResult) pps() float64 { return float64(r.Packets) / r.WallS }

// benchWorkload is one benchmark input set.
type benchWorkload struct {
	name string
	// prepare, when set, runs once in the parent and its output is
	// handed to every child on standard input (the oracle, which is
	// the same for every repetition of a seed).
	prepare func(seed int64) ([]byte, error)
	// run measures one repetition.  mode is "plain"; "traced" adds
	// spans and the CPU profile; "replay" also runs the per-layer
	// replay calls and writes the spans out.
	run func(seed int64, mode string, input []byte) (*repResult, error)
}

var workloads = map[string]benchWorkload{
	"sim-mix":       {name: "sim-mix", prepare: simMixCfg.prepare, run: simMixCfg.run},
	"sim-churn":     {name: "sim-churn", prepare: simChurnCfg.prepare, run: simChurnCfg.run},
	"live-loopback": {name: "live-loopback", run: runLive},
}

const (
	// childProcs pins GOMAXPROCS in every child.  A universe is
	// single-threaded, and on a 2-CPU host a second P mostly adds
	// cross-CPU wake-ups; with one P the runs spread several times
	// less, for the live workload too (README.md, "Run hygiene").
	childProcs = 1
	// minReps is the fewest children per run, whatever --seconds says.
	minReps = 5
	// childTimeout kills a child that hangs, so a run still ends.
	childTimeout = time.Minute
	// maxErrors bounds the check failures a child reports by text.
	maxErrors = 20
	// traceDir is where a replay child writes its spans, relative to
	// the repository root the benchmark runs from.
	traceDir = ".bench_build/traces"
)

func main() {
	wname := flag.String("workload", "", "sim-mix, sim-churn or live-loopback")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "wall seconds the run spends on measured repetitions")
	traceOn := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	child := flag.String("child", "", "internal: run one repetition in this process (plain|traced|replay)")
	flag.Parse()

	w, ok := workloads[*wname]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wname)
		os.Exit(2)
	}
	if *child != "" {
		input, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reading input: %v\n", err)
			os.Exit(1)
		}
		res, err := w.run(*seed, *child, input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if n := len(res.Errors); n > maxErrors {
			res.Errors = append(res.Errors[:maxErrors], fmt.Sprintf("and %d more", n-maxErrors))
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		return
	}
	if err := parent(w, *seed, *seconds, *traceOn == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

// spawn runs one child repetition and decodes its result line.
func spawn(w benchWorkload, seed int64, mode string, input []byte) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-child", mode)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stdin = bytes.NewReader(input)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", mode, err)
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child %s: bad result: %w", mode, err)
	}
	if res.Packets < 1 || res.WallS <= 0 || len(res.SetupS) == 0 {
		return nil, fmt.Errorf("child %s: empty measurement", mode)
	}
	return &res, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// parent runs the children for one invocation and prints the result.
func parent(w benchWorkload, seed int64, seconds float64, traced bool) error {
	fmt.Println("# perfbench", runHeader(w.name, seed, childProcs))
	var input []byte
	if w.prepare != nil {
		var err error
		if input, err = w.prepare(seed); err != nil {
			return err
		}
	}

	// A traced run alternates untraced and traced children, so the
	// tracing overhead is not confused with the host's drift.  The
	// first traced child also replays each layer and writes its spans.
	var reps, trs []*repResult
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		r, err := spawn(w, seed, "plain", input)
		if err != nil {
			return err
		}
		reps = append(reps, r)
		if traced {
			mode := "traced"
			if len(trs) == 0 {
				mode = "replay"
			}
			tr, err := spawn(w, seed, mode, input)
			if err != nil {
				return err
			}
			trs = append(trs, tr)
		}
	}
	var errs []string
	attempted, ok := 0, 0
	all := append(append([]*repResult(nil), reps...), trs...)
	for _, r := range all {
		errs = append(errs, r.Errors...)
		attempted += r.Packets
		ok += r.OK
		if diff := diffCounts(reps[0].Counts, r.Counts); diff != "" {
			errs = append(errs, "counts differ between repetitions of one seed: "+diff)
		}
	}

	res := result{Metrics: map[string]metric{}}
	if !traced {
		// Speed and latency come from the fastest quarter of the
		// children: the host's speed wanders by tens of percent over
		// seconds, and the fast end of the distribution is the part
		// that stays put between runs.  Each child times several
		// set-ups and reports the fastest; the run reports the median
		// child.
		fast := fastQuarter(reps)
		res.Metrics["pps"] = metric{medianOf(fast, (*repResult).pps), "1/s"}
		res.Metrics["p50_us"] = metric{medianOf(fast, func(r *repResult) float64 { return r.P50us }), "us"}
		res.Metrics["p99_us"] = metric{medianOf(fast, func(r *repResult) float64 { return r.P99us }), "us"}
		res.Metrics["ok_frac"] = metric{float64(ok) / float64(attempted), "frac"}
		res.Metrics["setup_s"] = metric{medianOf(reps, func(r *repResult) float64 { return minOf(r.SetupS) }), "s"}
		res.Metrics["heap_mb"] = metric{medianOf(reps, func(r *repResult) float64 { return r.HeapMB }), "MB"}
	} else {
		for _, m := range layerMetrics {
			v, found := trs[0].Layer[m.name]
			if m.untraced {
				v = medianOf(reps, func(r *repResult) float64 { return r.Layer[m.name] })
				_, found = reps[0].Layer[m.name]
			}
			if m.name == "trace.overhead_frac" {
				v, found = 1-medianOf(trs, (*repResult).pps)/medianOf(reps, (*repResult).pps), true
			}
			if !found {
				return fmt.Errorf("per-layer metric %s missing", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		for layer, ns := range cpuPerPacket(trs) {
			res.Metrics["cpu."+layer+"_ns"] = metric{ns, "ns"}
		}
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	fmt.Printf("# repetitions=%d errors=%d\n", len(reps), len(errs))
	res.Attempted = attempted
	res.Failed = attempted - ok
	res.Correct = len(errs) == 0 && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// layerMetrics lists the per-layer metrics of a traced run besides the
// cpu.<layer>_ns figures (see cpuLayers).  untraced ones come from the
// untraced children, because the benchmark's own span recording would
// inflate them.
var layerMetrics = []struct {
	name, unit string
	untraced   bool
}{
	{"sim.switch_ns", "ns", false},
	{"sim.ctx_switches_per_pkt", "count", false},
	{"sim.syscalls_per_pkt", "count", false},
	{"sim.kernel_entries_per_pkt", "count", false},
	{"filter.scan_ns", "ns", false},
	{"filter.applied_per_pkt", "count", false},
	{"filter.instrs_per_pkt", "count", false},
	{"filter.table_match_ns", "ns", false},
	{"filter.table_patch_us", "us", false},
	{"filter.table_work_per_patch", "count", false},
	{"pfdev.table_patches", "count", false},
	{"pfdev.table_builds", "count", false},
	{"pfdev.pkts_per_read", "count", false},
	{"pfdev.kernel_drops", "count", false},
	{"pfdev.port_drops", "count", false},
	{"ethersim.nic_drops", "count", false},
	{"live.send_ns", "ns", false},
	{"live.read_us", "us", false},
	{"live.pkts_per_read", "count", false},
	{"live.wire_rx", "count", false},
	{"go.allocs_per_pkt", "count", true},
	{"go.alloc_bytes_per_pkt", "B", true},
	{"trace.overhead_frac", "frac", false},
}

// cpuPerPacket pools the traced children's CPU profiles: each layer's
// share of the samples, times the CPU time they cover, per packet.
func cpuPerPacket(trs []*repResult) map[string]float64 {
	var samples, cpuNs, packets float64
	per := map[string]float64{}
	for _, tr := range trs {
		for layer, n := range tr.Samples {
			per[layer] += n
			samples += n
		}
		cpuNs += tr.CPUs * 1e9
		packets += float64(tr.Packets)
	}
	out := map[string]float64{}
	for _, layer := range cpuLayers {
		out[layer] = 0
		if samples > 0 {
			out[layer] = per[layer] / samples * cpuNs / packets
		}
	}
	return out
}

func diffCounts(a, b map[string]float64) string {
	var diffs []string
	for k, v := range a {
		if b[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", k, v, b[k]))
		}
	}
	if len(a) != len(b) {
		diffs = append(diffs, fmt.Sprintf("%d counters != %d", len(a), len(b)))
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// medianOf returns the median (nearest rank, upper on a tie) of f over
// the repetitions.
func medianOf(reps []*repResult, f func(*repResult) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	sort.Float64s(vs)
	return vs[len(vs)/2]
}

// fastQuarter returns the quarter of the repetitions with the highest
// pps, at least one.
func fastQuarter(reps []*repResult) []*repResult {
	s := append([]*repResult(nil), reps...)
	sort.Slice(s, func(a, b int) bool { return s[a].pps() > s[b].pps() })
	return s[:max(1, len(s)/4)]
}

func minOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		m = min(m, v)
	}
	return m
}

// runHeader records what a result was measured on.
func runHeader(workload string, seed int64, procs int) string {
	return fmt.Sprintf("workload=%s seed=%d gomaxprocs=%d cpus=%d cpu=%q go=%s",
		workload, seed, procs, runtime.NumCPU(), cpuModel(), runtime.Version())
}

// cpuModel reads the processor name for the run header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapMB forces a collection and reports the live heap in megabytes.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// quantile returns the q-quantile (nearest rank) of sorted durations, in
// microseconds.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e3
}
