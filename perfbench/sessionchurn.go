package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/session"
)

const (
	sessLambda = 0.1
	// sessOps is the number of ops in a scalar PATCH.
	sessOps = 4
	// sessReadEvery: every this-many-th request of a client is a GET.
	sessReadEvery = 4
	// sessTopoEvery: one PATCH in this many adds and removes a client,
	// which forces a full re-solve.
	sessTopoEvery = 32
	// sessWarm is the number of check-set PATCHes per session in setup.
	sessWarm = 8
)

// sessionSolvers are the two sessions: one Multiple, one Closest.
var sessionSolvers = []struct{ solver, policy string }{{"mg", "Multiple"}, {"cbu", "Closest"}}

// sessionChurn drives two placement sessions, one per client, with
// PATCH delta batches and interleaved GET reads; one watcher per
// session drains the diff stream.
type sessionChurn struct {
	seed              int64
	internal, clients int
	ins               []*core.Instance // one per session
	genMS             float64
	srv               *server
	cls               []*client
	dials             atomic.Int64
	ids               []string
	streams           []*deltaStream
	revs              []uint64 // last revision each client's PATCH produced
	watchers          []*watcher
	check             checkSet
}

func newSessionChurn(seed int64, sc scale) workload {
	w := &sessionChurn{seed: seed, internal: 20000, clients: 80000}
	if sc == testScale {
		w.internal, w.clients = 300, 1200
	}
	return w
}

// inputs generates one instance per session. Clients attach uniformly:
// the default balanced attachment deals from a list with (depth+1)²
// entries per vertex, whose size (and the run's peak memory) swings
// with the tree's depth from seed to seed.
func (w *sessionChurn) inputs() error {
	start := time.Now()
	w.ins, w.streams = nil, nil
	for c := range sessionSolvers {
		in := gen.Instance(gen.Config{Internal: w.internal, Clients: w.clients, Lambda: sessLambda,
			Attach: gen.AttachUniform}, mix(w.seed, 21, int64(c)))
		w.ins = append(w.ins, in)
		w.streams = append(w.streams, newDeltaStream(in, mix(w.seed, 22, int64(c)), true))
	}
	w.genMS = ms(time.Since(start)) / float64(len(w.ins))
	return nil
}

// deltaStream generates one client's requests. It depends only on the
// seed and the instance, never on answers: removals walk a shuffled
// client list, and rates are only ever set on clients not yet removed.
type deltaStream struct {
	rng      *rand.Rand
	n        int // requests so far
	patches  int
	topo     bool
	order    []int // initial clients, shuffled; the first removed are gone
	removed  int
	internal []int
	baseW    []int64
}

func newDeltaStream(in *core.Instance, seed int64, topo bool) *deltaStream {
	d := &deltaStream{rng: rand.New(rand.NewSource(seed)), topo: topo,
		order: append([]int(nil), in.Tree.Clients()...), internal: in.Tree.Internal(), baseW: in.W}
	d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
	return d
}

type patchBody struct {
	Ops []session.Op `json:"ops"`
}

// next returns the next request: a nil body is a GET of the session.
func (d *deltaStream) next() []byte {
	d.n++
	if d.n%sessReadEvery == 0 {
		return nil
	}
	d.patches++
	var ops []session.Op
	if d.topo && d.patches%sessTopoEvery == 0 && d.removed < len(d.order)-1 {
		c := d.order[d.removed]
		d.removed++
		ops = []session.Op{
			{Op: session.OpAddClient, Parent: d.internal[d.rng.Intn(len(d.internal))], Rate: 1 + d.rng.Int63n(100)},
			{Op: session.OpRemoveClient, Vertex: c},
		}
	} else {
		for k := 0; k < sessOps; k++ {
			if d.rng.Intn(2) == 0 {
				c := d.order[d.removed+d.rng.Intn(len(d.order)-d.removed)]
				ops = append(ops, session.Op{Op: session.OpSetRate, Vertex: c, Value: 1 + d.rng.Int63n(100)})
			} else {
				v := d.internal[d.rng.Intn(len(d.internal))]
				ops = append(ops, session.Op{Op: session.OpSetCapacity, Vertex: v,
					Value: max(1, d.baseW[v]*int64(90+d.rng.Intn(21))/100)})
			}
		}
	}
	body, _ := json.Marshal(patchBody{Ops: ops})
	return body
}

type createBody struct {
	Instance *core.Instance `json:"instance"`
	Solver   string         `json:"solver"`
	Policy   string         `json:"policy"`
}

func (w *sessionChurn) setup() error {
	if err := w.inputs(); err != nil {
		return err
	}
	srv, err := startServer(serverConfig{})
	if err != nil {
		return err
	}
	w.srv = srv
	ctx := context.Background()
	w.revs = make([]uint64, len(sessionSolvers))
	for c, s := range sessionSolvers {
		cl := newClient(srv.addr, &w.dials)
		w.cls = append(w.cls, cl)
		body, err := json.Marshal(createBody{Instance: w.ins[c], Solver: s.solver, Policy: s.policy})
		if err != nil {
			return err
		}
		out, err := cl.post(ctx, "/v1/instances", body, http.StatusCreated)
		if err != nil {
			return fmt.Errorf("create %s session: %w", s.solver, err)
		}
		var st session.Status
		if err := json.Unmarshal(out, &st); err != nil {
			return err
		}
		w.ids = append(w.ids, st.ID)
		w.revs[c] = st.Rev
		w.count(st.Cost, st.NoSolution)
		wt, err := startWatcher(srv.addr, st.ID)
		if err != nil {
			return err
		}
		w.watchers = append(w.watchers, wt)
		// Check-set deltas: scalar only, from a stream of their own.
		warm := newDeltaStream(w.ins[c], mix(w.seed, 23, int64(c)), false)
		for k := 0; k < sessWarm; {
			body := warm.next()
			if body == nil {
				continue
			}
			k++
			res, err := w.patch(ctx, c, body)
			if err != nil {
				return fmt.Errorf("warm delta: %w", err)
			}
			w.count(res.Cost, res.NoSolution)
		}
	}
	return nil
}

func (w *sessionChurn) count(cost int64, noSolution bool) {
	w.check.answers++
	if !noSolution {
		w.check.solved++
		w.check.cost += float64(cost)
	}
}

func (w *sessionChurn) request(ctx context.Context, c int) error {
	body := w.streams[c].next()
	if body == nil {
		status, out, err := w.cls[c].do(ctx, http.MethodGet, "/v1/instances/"+w.ids[c], "", nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("GET status %d: %.200s", status, out)
		}
		if rev := jsonUint(out, `"rev":`); rev != w.revs[c] {
			return mismatchf("session %d read rev %d, last PATCH made %d", c, rev, w.revs[c])
		}
		return nil
	}
	_, err := w.patch(ctx, c, body)
	return err
}

type patchResult struct {
	Rev        uint64 `json:"rev"`
	Cost       int64  `json:"cost"`
	NoSolution bool   `json:"no_solution"`
	Mode       string `json:"mode"`
}

// patch applies one delta batch; the client owns the session, so each
// PATCH must advance the revision by exactly one.
func (w *sessionChurn) patch(ctx context.Context, c int, body []byte) (patchResult, error) {
	var res patchResult
	status, out, err := w.cls[c].do(ctx, http.MethodPatch, "/v1/instances/"+w.ids[c], "application/json", body)
	if err != nil {
		return res, err
	}
	if status != http.StatusOK {
		return res, fmt.Errorf("PATCH status %d: %.200s", status, out)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, err
	}
	if res.Rev != w.revs[c]+1 {
		return res, mismatchf("session %d: PATCH made rev %d after %d", c, res.Rev, w.revs[c])
	}
	w.revs[c] = res.Rev
	return res, nil
}

// jsonUint reads the unsigned integer after key, or 0.
func jsonUint(b []byte, key string) uint64 {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0
	}
	b = b[i+len(key):]
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	v, _ := strconv.ParseUint(string(b[:j]), 10, 64)
	return v
}

// verify compares each session with a cold solve of its mutated
// instance, and waits for each watcher to have seen the last revision.
func (w *sessionChurn) verify() error {
	reg := service.NewRegistry()
	for c, id := range w.ids {
		s, err := w.srv.sessions.Get(id)
		if err != nil {
			return err
		}
		st := s.Status()
		in := s.InstanceCopy()
		solver, ok := reg.Resolve(sessionSolvers[c].solver, s.Policy())
		if !ok {
			return fmt.Errorf("no solver %s", sessionSolvers[c].solver)
		}
		cold, err := solver.Run(context.Background(), in, service.Options{})
		if err != nil {
			return err
		}
		if cold.NoSolution != st.NoSolution {
			return fmt.Errorf("session %s: no_solution %v, cold solve %v", id, st.NoSolution, cold.NoSolution)
		}
		if !cold.NoSolution {
			want := cold.Solution.Replicas()
			sort.Ints(want)
			got := s.Replicas()
			if cost := cold.Solution.StorageCost(in); cost != st.Cost || !equalInts(want, got) {
				return fmt.Errorf("session %s at rev %d: cost %d with %d replicas, cold solve %d with %d",
					id, st.Rev, st.Cost, len(got), cost, len(want))
			}
			sol, ok := s.Solution()
			if !ok || !reflect.DeepEqual(sol.Assign, cold.Solution.Assign) {
				return fmt.Errorf("session %s at rev %d: client assignment differs from the cold solve", id, st.Rev)
			}
		}
		if err := w.watchers[c].waitFor(st.Rev, 30*time.Second); err != nil {
			return fmt.Errorf("session %s: %w", id, err)
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *sessionChurn) checkSet() checkSet { return w.check }

func (w *sessionChurn) streamHash(n int) string {
	var parts [][]byte
	for _, s := range w.streams {
		for k := 0; k < n; k++ {
			parts = append(parts, s.next())
		}
	}
	return digest(parts...)
}

func (w *sessionChurn) layers() *layerInputs {
	li := &layerInputs{
		insts:        w.ins[:1],
		solvers:      []string{"mg"},
		genMS:        w.genMS,
		handler:      w.srv.handler,
		handlerCalls: 64,
		sessions:     w.srv.sessions,
		dials:        w.dials.Load,
	}
	// Handler calls continue the first client's stream, which knows the
	// clients its earlier requests removed.
	li.handlerReq = func(i int) *http.Request {
		if body := w.streams[0].next(); body != nil {
			return httptest.NewRequest(http.MethodPatch, "/v1/instances/"+w.ids[0], bytes.NewReader(body))
		}
		return httptest.NewRequest(http.MethodGet, "/v1/instances/"+w.ids[0], nil)
	}
	return li
}

func (w *sessionChurn) close() {
	for _, wt := range w.watchers {
		wt.stop()
	}
	for _, c := range w.cls {
		c.close()
	}
	if w.srv != nil {
		w.srv.close()
	}
}

// watcher drains one session's watch stream on a connection of its own.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}
	tr     *http.Transport

	mu      sync.Mutex
	lastRev uint64
	diffs   int
	moved   chan struct{} // signalled (non-blocking) on every diff
	err     error
}

// startWatcher opens the stream and returns once the opening snapshot
// diff has arrived.
func startWatcher(addr, id string) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	wt := &watcher{cancel: cancel, done: make(chan struct{}), moved: make(chan struct{}, 1),
		tr: &http.Transport{DisableCompression: true}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/instances/"+id+"/watch", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: wt.tr}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch status %d", resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 1<<20)
	if err := wt.readDiff(rd); err != nil {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch snapshot: %w", err)
	}
	go func() {
		defer close(wt.done)
		defer resp.Body.Close()
		for {
			if err := wt.readDiff(rd); err != nil {
				if ctx.Err() == nil {
					wt.mu.Lock()
					wt.err = err
					wt.mu.Unlock()
				}
				return
			}
		}
	}()
	return wt, nil
}

func (wt *watcher) readDiff(rd *bufio.Reader) error {
	line, err := rd.ReadBytes('\n')
	if err != nil {
		return err
	}
	var d session.Diff
	if err := json.Unmarshal(line, &d); err != nil {
		return err
	}
	wt.mu.Lock()
	if d.Rev > wt.lastRev {
		wt.lastRev = d.Rev
	}
	wt.diffs++
	wt.mu.Unlock()
	select {
	case wt.moved <- struct{}{}:
	default:
	}
	return nil
}

// waitFor blocks until the watcher has seen rev.
func (wt *watcher) waitFor(rev uint64, limit time.Duration) error {
	deadline := time.NewTimer(limit)
	defer deadline.Stop()
	for {
		wt.mu.Lock()
		last, err := wt.lastRev, wt.err
		wt.mu.Unlock()
		if last >= rev {
			return nil
		}
		if err != nil {
			return fmt.Errorf("watcher stopped at rev %d: %w", last, err)
		}
		select {
		case <-wt.moved:
		case <-deadline.C:
			return errors.New("watcher did not reach the last revision")
		}
	}
}

func (wt *watcher) stop() {
	wt.cancel()
	<-wt.done
	wt.tr.CloseIdleConnections()
}
