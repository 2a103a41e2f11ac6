package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service"
)

const (
	batchLambda = 0.2
	// batchVariations is the number of variations per /v1/batch call.
	batchVariations = 4
	// batchRepeatEvery: one variation in this many repeats a variation
	// an earlier call of the run already sent.
	batchRepeatEvery = 4
	// batchWarm is the number of check-set batches sent in setup.
	batchWarm = 8
)

// batchRouted sends /v1/batch calls to a coordinator that routes them
// over two rp-wire workers.
type batchRouted struct {
	seed     int64
	internal int
	clients  int
	base     *core.Instance
	baseVar  service.BatchVariation
	topo     service.BatchTopology
	cs       *clusterStack
	cl       *client
	dials    atomic.Int64
	seq      int
	sent     []batchRecord
	warm     []batchRecord
	genMS    float64
}

// batchRecord is one sent batch: its stream position and the digest of
// every row, normalized by cutting the "cached" and "elapsed_ms" tail.
type batchRecord struct {
	stream int64
	seq    int
	rows   [][32]byte
	resps  []service.Response // check-set batches only
}

func newBatchRouted(seed int64, sc scale) workload {
	w := &batchRouted{seed: seed, internal: 3334, clients: 6666}
	if sc == testScale {
		w.internal, w.clients = 60, 120
	}
	return w
}

func (w *batchRouted) inputs() error {
	start := time.Now()
	w.base = gen.Instance(gen.Config{Internal: w.internal, Clients: w.clients, Lambda: batchLambda}, mix(w.seed, 11))
	w.genMS = ms(time.Since(start))
	w.topo = service.BatchTopology{Parents: w.base.Tree.Parents(), IsClient: w.base.Tree.ClientFlags()}
	w.baseVar = service.BatchVariation{R: w.base.R, W: w.base.W, S: w.base.S}
	return nil
}

// variation is a pure function of its stream position. Even slots
// redraw every client's rate in the generator's range, odd slots scale
// every capacity by 90..110%. In the window stream, the last slot of
// each group of batchRepeatEvery repeats a fresh variation of an
// earlier call.
func (w *batchRouted) variation(stream int64, seq, j int) service.BatchVariation {
	rng := rand.New(rand.NewSource(mix(w.seed, stream, int64(seq), int64(j))))
	if stream == streamWindow && seq > 0 && j%batchRepeatEvery == batchRepeatEvery-1 {
		ps := rng.Intn(seq)
		pj := rng.Intn(batchVariations)
		if pj%batchRepeatEvery == batchRepeatEvery-1 {
			pj--
		}
		return w.variation(stream, ps, pj)
	}
	if j%2 == 0 {
		r := make([]int64, len(w.base.R))
		for _, c := range w.base.Tree.Clients() {
			r[c] = 1 + rng.Int63n(100)
		}
		return service.BatchVariation{R: r}
	}
	caps := make([]int64, len(w.base.W))
	for _, v := range w.base.Tree.Internal() {
		caps[v] = max(1, w.base.W[v]*int64(90+rng.Intn(21))/100)
	}
	return service.BatchVariation{W: caps}
}

func (w *batchRouted) payload(stream int64, seq int) *service.BatchPayload {
	p := &service.BatchPayload{Topology: w.topo, Solver: "mg", Policy: "Multiple", Base: w.baseVar}
	for j := 0; j < batchVariations; j++ {
		p.Variations = append(p.Variations, w.variation(stream, seq, j))
	}
	return p
}

func (w *batchRouted) setup() error {
	if err := w.inputs(); err != nil {
		return err
	}
	cs, err := startCluster()
	if err != nil {
		return err
	}
	w.cs = cs
	w.cl = newClient(cs.coord.addr, &w.dials)
	// The check-set batches open the client connection and every wire
	// connection the routed chunks use.
	for k := 0; k < batchWarm; k++ {
		rec, err := w.send(context.Background(), streamWarm, k, true)
		if err != nil {
			return fmt.Errorf("warm batch %d: %w", k, err)
		}
		w.warm = append(w.warm, rec)
	}
	return nil
}

func (w *batchRouted) request(ctx context.Context, _ int) error {
	rec, err := w.send(ctx, streamWindow, w.seq, false)
	w.seq++
	if err != nil {
		return err
	}
	w.sent = append(w.sent, rec)
	return nil
}

// send posts one batch and checks the stream's shape: every index in
// order, no row error, a done trailer.
func (w *batchRouted) send(ctx context.Context, stream int64, seq int, keep bool) (batchRecord, error) {
	rec := batchRecord{stream: stream, seq: seq}
	body, err := json.Marshal(w.payload(stream, seq))
	if err != nil {
		return rec, err
	}
	status, out, err := w.cl.do(ctx, http.MethodPost, "/v1/batch", "application/json", body)
	if err != nil {
		return rec, err
	}
	if status != http.StatusOK {
		return rec, fmt.Errorf("status %d: %.200s", status, out)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 64<<20)
	done := false
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"done":true`)) {
			done = true
			if !bytes.Contains(line, []byte(`"failed":0,`)) {
				return rec, mismatchf("batch %d: trailer %s", seq, line)
			}
			continue
		}
		prefix := fmt.Sprintf(`{"index":%d,`, len(rec.rows))
		cut := bytes.LastIndex(line, []byte(`,"cached":`))
		if !bytes.HasPrefix(line, []byte(prefix)) || cut < 0 {
			return rec, mismatchf("batch %d row %d: %.200s", seq, len(rec.rows), line)
		}
		rec.rows = append(rec.rows, sha256.Sum256(line[len(prefix):cut]))
		if keep {
			var r service.Response
			if err := json.Unmarshal(line, &r); err != nil {
				return rec, err
			}
			rec.resps = append(rec.resps, r)
		}
	}
	if !done || len(rec.rows) != batchVariations {
		return rec, mismatchf("batch %d: %d rows, done=%v", seq, len(rec.rows), done)
	}
	return rec, nil
}

// verify solves every sent batch again on a fresh local engine and
// compares each row with the routed one. The engine retains no results:
// its cache would only hold the run's answers a second time.
func (w *batchRouted) verify() error {
	eng := service.NewEngine(service.EngineOptions{CacheSize: -1})
	defer eng.Close(context.Background())
	for _, rec := range append(append([]batchRecord(nil), w.warm...), w.sent...) {
		p := w.payload(rec.stream, rec.seq)
		base, policy, err := p.Build(eng)
		if err != nil {
			return err
		}
		want := make([][32]byte, len(p.Variations))
		var lineErr error
		err = eng.SolveBatch(context.Background(), service.BatchRequest{
			Base: base, Solver: p.Solver, Policy: policy, Variations: p.Variations,
		}, func(it service.BatchItem) {
			if it.Err != nil {
				lineErr = it.Err
				return
			}
			line := service.BatchLine{Index: it.Index, Response: it.Response}
			data, err := line.AppendJSON(nil)
			if err != nil {
				lineErr = err
				return
			}
			prefix := fmt.Sprintf(`{"index":%d,`, it.Index)
			cut := bytes.LastIndex(data, []byte(`,"cached":`))
			want[it.Index] = sha256.Sum256(data[len(prefix):cut])
		})
		if err != nil {
			return err
		}
		if lineErr != nil {
			return lineErr
		}
		for i := range want {
			if want[i] != rec.rows[i] {
				return fmt.Errorf("batch %d (stream %d) row %d differs from a local SolveBatch", rec.seq, rec.stream, i)
			}
		}
	}
	return nil
}

func (w *batchRouted) checkSet() checkSet {
	var cs checkSet
	for _, rec := range w.warm {
		for _, r := range rec.resps {
			cs.answers++
			if !r.NoSolution {
				cs.solved++
				cs.cost += float64(r.Cost)
			}
		}
	}
	return cs
}

func (w *batchRouted) streamHash(n int) string {
	var parts [][]byte
	for k := 0; k < n; k++ {
		b, _ := json.Marshal(w.payload(streamWindow, k))
		parts = append(parts, b)
	}
	return digest(parts...)
}

func (w *batchRouted) layers() *layerInputs {
	li := &layerInputs{
		insts:        []*core.Instance{w.base},
		solvers:      []string{"mg"},
		genMS:        w.genMS,
		handler:      w.cs.coord.handler,
		handlerCalls: 8,
		engines:      w.cs.engines(),
		pool:         w.cs.pool,
		dials:        w.dials.Load,
	}
	li.batchAt = func(i int) *service.BatchPayload { return w.payload(streamLadder, i) }
	li.handlerReq = func(i int) *http.Request {
		body, _ := json.Marshal(w.payload(streamLadder, i+1))
		return httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(string(body)))
	}
	return li
}

func (w *batchRouted) close() {
	if w.cl != nil {
		w.cl.close()
	}
	if w.cs != nil {
		w.cs.close()
	}
}
