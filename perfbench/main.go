// Command perfbench is the repository's end-to-end benchmark. One run
// sets up one seeded workload against the real serving stack in this
// process, drives it as a closed loop for a fixed number of seconds,
// checks every answer against an in-process reference, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload solve-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with --trace 1 the run is split into an untraced and a
// traced half and the metrics are the per-layer ladder ("per_layer").
// See README.md for the workloads and LAYERS.md for the layer ladder.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run builds its workload from scratch.
// setup_s is the median of the repetitions; every repetition but the
// last is torn down again, and the last one serves the timed window.
const setupReps = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer ladder")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	rep := &report{out: stdout, seed: fmt.Sprint(*seed)}
	rep.meta("workload", spec.name)
	rep.meta("seed", fmt.Sprint(*seed))
	rep.meta("commit", sourceCommit())
	rep.meta("go", runtime.Version())
	rep.meta("gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0)))
	rep.meta("nproc", fmt.Sprint(runtime.NumCPU()))
	rep.meta("lambda", spec.lambda)
	rep.meta("clients", fmt.Sprint(spec.clients))

	res, err := execute(spec, *seed, fullScale, dur, *trace == 1, rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	if err := rep.finish(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d answers failed their check\n", spec.name, res.failed)
		return 1
	}
	return 0
}

// outcome is what one run reports.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

type metric struct {
	name, unit string
	value      float64
}

// execute builds the workload setupReps times, drives the timed window
// on the last build and gathers the run's metrics.
func execute(spec workloadSpec, seed int64, sc scale, dur time.Duration, traced bool, rep *report) (*outcome, error) {
	var (
		w      workload
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		start := time.Now()
		nw := spec.build(seed, sc)
		if err := nw.setup(); err != nil {
			nw.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		runtime.GC()
		setups = append(setups, time.Since(start).Seconds())
		w = nw
	}
	defer w.close()
	setup := median(setups)
	rep.line(fmt.Sprintf("setup runs %v", roundAll(setups, 4)))
	rep.line(fmt.Sprintf("peak rss after setup %.1f MB", peakRSSMB()))

	if traced {
		return tracedRun(spec, w, seed, dur, rep)
	}

	win := runWindow(w, spec.clients, dur, nil)
	// Read before verify: the answer checks build references of their
	// own, whose memory is not the stack's.
	peakRSS := peakRSSMB()
	rep.line(fmt.Sprintf("peak rss after window %.1f MB", peakRSS))
	checkErr := w.verify()
	out := &outcome{attempted: win.attempted, failed: win.failed}
	if win.firstErr != nil {
		rep.line("first failure: " + win.firstErr.Error())
	}
	if checkErr != nil {
		rep.line("check failed: " + checkErr.Error())
		out.failed++
		out.attempted++
	}
	out.correct = out.failed == 0
	cs := w.checkSet()
	completed := len(win.lat)
	if completed == 0 {
		return nil, errors.New("no request completed in the timed window")
	}
	rep.line(fmt.Sprintf("samples %d completed, %d attempted, %d failed, tail percentile p%g",
		completed, out.attempted, out.failed, spec.tail*100))
	rep.line(fmt.Sprintf("latency ms p50 %.4f p90 %.4f p95 %.4f p99 %.4f max %.4f",
		ms(percentile(win.lat, 0.5)), ms(percentile(win.lat, 0.9)), ms(percentile(win.lat, 0.95)),
		ms(percentile(win.lat, 0.99)), ms(percentile(win.lat, 1))))
	rep.line(fmt.Sprintf("failed_share %.6f", float64(out.failed)/float64(out.attempted)))
	rep.line(fmt.Sprintf("completions per second %v", win.perSecond()))
	rep.line(fmt.Sprintf("check set: %d answers, %d with a placement", cs.answers, cs.solved))
	out.metrics = []metric{
		{"setup_s", "s", setup},
		{"throughput_rps", "1/s", win.throughput()},
		{"latency_p50_ms", "ms", ms(percentile(win.lat, 0.5))},
		{"latency_tail_ms", "ms", ms(percentile(win.lat, spec.tail))},
		{"ok_share", "ratio", 1 - float64(out.failed)/float64(out.attempted)},
		{"allocs_per_req", "count", float64(win.rt.allocs) / float64(completed)},
		{"peak_rss_mb", "MB", peakRSS},
		{"placement_cost", "cost", cs.cost},
		{"solved_share", "ratio", float64(cs.solved) / float64(cs.answers)},
	}
	return out, nil
}

// report prints the human-readable lines and the closing JSON object.
type report struct {
	out  io.Writer
	seed string
}

func (r *report) meta(key, value string) { fmt.Fprintf(r.out, "# %s: %s\n", key, value) }

func (r *report) line(s string) { fmt.Fprintf(r.out, "# %s\n", s) }

func (r *report) finish(o *outcome) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(o.metrics))
	for _, m := range o.metrics {
		if _, dup := ms[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		fmt.Fprintf(r.out, "%-34s %16.6f %s\n", m.name, m.value, m.unit)
		ms[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	body, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.correct, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "%s\n", body)
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
