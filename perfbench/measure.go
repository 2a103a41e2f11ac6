package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// window is one closed-loop measurement: every client sends its next
// request only after the previous one answered.
type window struct {
	dur       time.Duration
	lat       []time.Duration // successful requests, client-observed
	ends      []time.Duration // their completion offsets from the start
	perClient []clientCount
	attempted int
	failed    int // errors, bad statuses and answers failing their check
	firstErr  error
	rt        runtimeCounters
}

// clientCount is one client's successful requests and the offset of its
// last completion from the window's start.
type clientCount struct {
	n    int
	last time.Duration
}

// runWindow drives clients closed loops against w for dur. With a
// tracer, each request runs under its own root span.
func runWindow(w workload, clients int, dur time.Duration, tr *tracer) *window {
	type perClient struct {
		lat, ends         []time.Duration
		attempted, failed int
		err               error
	}
	pcs := make([]perClient, clients)
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pc := &pcs[c]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				ctx := context.Background()
				var rt *rootSpan
				if tr != nil {
					ctx, rt = tr.begin(ctx, "bench.request")
				}
				err := w.request(ctx, c)
				t1 := time.Now()
				if rt != nil {
					tr.end(rt)
				}
				pc.attempted++
				if err != nil {
					pc.failed++
					if pc.err == nil {
						pc.err = err
					}
					continue
				}
				pc.lat = append(pc.lat, t1.Sub(t0))
				pc.ends = append(pc.ends, t1.Sub(start))
			}
		}(c)
	}
	wg.Wait()
	win := &window{dur: dur, rt: readRuntime().since(before)}
	for _, pc := range pcs {
		win.lat = append(win.lat, pc.lat...)
		win.ends = append(win.ends, pc.ends...)
		cc := clientCount{n: len(pc.lat)}
		if cc.n > 0 {
			cc.last = pc.ends[cc.n-1]
		}
		win.perClient = append(win.perClient, cc)
		win.attempted += pc.attempted
		win.failed += pc.failed
		if win.firstErr == nil {
			win.firstErr = pc.err
		}
	}
	sort.Slice(win.lat, func(i, j int) bool { return win.lat[i] < win.lat[j] })
	return win
}

// throughput sums each client's completed requests per second, timed
// from the window's start to that client's last completion: every
// request started inside the window counts, so slow workloads do not
// lose a partial request to the window's edge.
func (w *window) throughput() float64 {
	var rps float64
	for _, c := range w.perClient {
		if c.n > 0 {
			rps += float64(c.n) / c.last.Seconds()
		}
	}
	return rps
}

// perSecond counts completions in each whole second of the window.
func (w *window) perSecond() []int {
	out := make([]int, int(w.dur/time.Second)+1)
	for _, e := range w.ends {
		if i := int(e / time.Second); i < len(out) {
			out[i]++
		}
	}
	return out
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// mismatchf reports an answer that arrived but failed its check.
func mismatchf(format string, args ...any) error {
	return fmt.Errorf("answer check: "+format, args...)
}

// runtimeCounters are process-wide Go runtime counters.
type runtimeCounters struct {
	allocs, gcCycles uint64
	gcPause          time.Duration
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcPause:  time.Duration(m.PauseTotalNs),
	}
}

func (c runtimeCounters) since(before runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocs:   c.allocs - before.allocs,
		gcCycles: c.gcCycles - before.gcCycles,
		gcPause:  c.gcPause - before.gcPause,
	}
}

// peakRSSMB is the process's peak resident set in MiB (getrusage's
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// sourceCommit names the code under test: the git commit when the run
// happens inside a git checkout, and always a digest of the module's Go
// sources and go.mod files, which identifies an exported tree too.
func sourceCommit() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f)
		return nil
	})
	digest := "src-" + hex.EncodeToString(h.Sum(nil))[:16]
	if c := gitHead(); c != "" {
		return c + " " + digest
	}
	return digest
}

// gitHead reads the checked-out commit from .git without running git.
func gitHead() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}
