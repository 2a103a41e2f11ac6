package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service"
)

// hotSolvers is the solve-hot mix: Multiple (mg, and mb, the best of
// the Multiple heuristics), Closest (cbu) and Upwards (utd).
var hotSolvers = []string{"mg", "mb", "cbu", "utd"}

const hotLambda = 0.1

// solveHot sends cache-hit /v1/solve requests: the working set is
// primed in setup, so every timed request is served from the cache.
type solveHot struct {
	seed    int64
	n       int // working-set size
	items   []hotItem
	srv     *server
	clients []*client
	streams []*rand.Rand
	dials   atomic.Int64
	genMS   float64
}

type hotItem struct {
	in     *core.Instance
	solver string
	body   []byte
	// want is the primed response up to its "cached" field: the bytes
	// every later answer must repeat.
	want []byte
	resp service.Response
}

func newSolveHot(seed int64, sc scale) workload {
	n := 256
	if sc == testScale {
		n = 16
	}
	return &solveHot{seed: seed, n: n}
}

// solveBody is the /v1/solve request.
type solveBody struct {
	Instance *core.Instance `json:"instance"`
	Solver   string         `json:"solver"`
}

// inputs builds the working set: sizes spread evenly over the paper's
// 15 ≤ s ≤ 400, one gen.SizeSweep tree per size, solvers in rotation.
func (w *solveHot) inputs() error {
	var genTime time.Duration
	w.items = make([]hotItem, w.n)
	for i := range w.items {
		size := 15 + i*(400-15)/(w.n-1)
		start := time.Now()
		in := gen.SizeSweep(gen.Config{Lambda: hotLambda}, mix(w.seed, 1, int64(i)), 1, size, size)[0]
		genTime += time.Since(start)
		body, err := json.Marshal(solveBody{Instance: in, Solver: hotSolvers[i%len(hotSolvers)]})
		if err != nil {
			return err
		}
		w.items[i] = hotItem{in: in, solver: hotSolvers[i%len(hotSolvers)], body: body}
	}
	w.genMS = ms(genTime) / float64(w.n)
	w.streams = make([]*rand.Rand, 2)
	for c := range w.streams {
		w.streams[c] = rand.New(rand.NewSource(mix(w.seed, 2, int64(c))))
	}
	return nil
}

func (w *solveHot) setup() error {
	if err := w.inputs(); err != nil {
		return err
	}
	srv, err := startServer(serverConfig{})
	if err != nil {
		return err
	}
	w.srv = srv
	for c := 0; c < 2; c++ {
		w.clients = append(w.clients, newClient(srv.addr, &w.dials))
	}
	ctx := context.Background()
	for i := range w.items {
		it := &w.items[i]
		out, err := w.clients[0].post(ctx, "/v1/solve", it.body, http.StatusOK)
		if err != nil {
			return fmt.Errorf("priming item %d: %w", i, err)
		}
		if err := json.Unmarshal(out, &it.resp); err != nil {
			return err
		}
		cut := bytes.LastIndex(out, []byte(`"cached":`))
		if cut < 0 {
			return fmt.Errorf("priming item %d: no cached field in %.200s", i, out)
		}
		it.want = append([]byte(nil), out[:cut]...)
	}
	// One warm request on the second client's connection.
	return w.send(ctx, 1, 0)
}

func (w *solveHot) request(ctx context.Context, c int) error {
	return w.send(ctx, c, w.streams[c].Intn(len(w.items)))
}

func (w *solveHot) send(ctx context.Context, c, i int) error {
	it := &w.items[i]
	status, out, err := w.clients[c].do(ctx, http.MethodPost, "/v1/solve", "application/json", it.body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, out)
	}
	if !bytes.HasPrefix(out, it.want) || !bytes.HasPrefix(out[len(it.want):], []byte(`"cached":`)) {
		return mismatchf("item %d: %.200s", i, out)
	}
	return nil
}

// verify has nothing left to do: every answer was checked as it came.
func (w *solveHot) verify() error { return nil }

func (w *solveHot) checkSet() checkSet {
	cs := checkSet{answers: len(w.items)}
	for _, it := range w.items {
		if !it.resp.NoSolution {
			cs.solved++
			cs.cost += float64(it.resp.Cost)
		}
	}
	return cs
}

func (w *solveHot) streamHash(n int) string {
	var parts [][]byte
	for c := range w.streams {
		for k := 0; k < n; k++ {
			parts = append(parts, w.items[w.streams[c].Intn(len(w.items))].body)
		}
	}
	return digest(parts...)
}

func (w *solveHot) layers() *layerInputs {
	li := &layerInputs{
		solvers:      hotSolvers,
		genMS:        w.genMS,
		handler:      w.srv.handler,
		handlerCalls: ladderSample,
		engines:      []*service.Engine{w.srv.engine},
		dials:        w.dials.Load,
		shares:       true,
	}
	for _, it := range w.items {
		li.insts = append(li.insts, it.in)
	}
	// The i-th handler call takes the i-th instance of the ladder's
	// sample, so handler and layer calls see the same sizes.
	li.handlerReq = func(i int) *http.Request {
		it := &w.items[sampleIndex(i%ladderSample, len(w.items))]
		return httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(it.body))
	}
	return li
}

func (w *solveHot) close() {
	for _, c := range w.clients {
		c.close()
	}
	if w.srv != nil {
		w.srv.close()
	}
}
