package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/heuristics"
	"repro/internal/lpbound"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/tree"
)

// tracedRun splits the window into an untraced and a traced half, reads
// the stack's layer counters across the traced half, then times direct
// calls into the public functions of each layer the workload crosses,
// on the workload's own inputs. It reports the per-layer ladder.
func tracedRun(spec workloadSpec, w workload, seed int64, dur time.Duration, rep *report) (*outcome, error) {
	li := w.layers()
	half := dur / 2

	plain := runWindow(w, spec.clients, half, nil)
	before := readLayerCounters(li)
	tr := newTracer()
	traced := runWindow(w, spec.clients, half, tr)
	after := readLayerCounters(li)
	checkErr := w.verify()
	if len(plain.lat) == 0 || len(traced.lat) == 0 {
		return nil, fmt.Errorf("no request completed in a half window")
	}
	out := &outcome{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
	}
	if checkErr != nil {
		rep.line("check failed: " + checkErr.Error())
		out.failed++
		out.attempted++
	}
	out.correct = out.failed == 0
	for _, win := range []*window{plain, traced} {
		if win.firstErr != nil {
			rep.line("first failure: " + win.firstErr.Error())
		}
	}

	l := &ladder{tr: tr, rep: rep, seed: seed, crosses: spec.crosses}
	untracedRPS, tracedRPS := plain.throughput(), traced.throughput()
	l.add("trace.untraced_rps", "1/s", untracedRPS)
	l.add("trace.traced_rps", "1/s", tracedRPS)
	l.add("trace.overhead_share", "ratio", 1-tracedRPS/untracedRPS)
	clientP50 := percentile(traced.lat, 0.5)
	l.add("http.client_us", "us", us(clientP50))
	l.add("runtime.gc_cycles", "count", float64(traced.rt.gcCycles))
	l.add("runtime.gc_pause_ms", "ms", ms(traced.rt.gcPause))
	l.add("http.conns_dialed", "count", float64(after.dials-before.dials))
	l.windowCounters(before, after)

	if err := l.run(li, clientP50); err != nil {
		return nil, err
	}
	if err := l.complete(); err != nil {
		return nil, err
	}
	if li.shares {
		l.shares(clientP50)
	}
	for _, st := range tr.selfTimes() {
		rep.line(fmt.Sprintf("self %-28s n=%-7d total_ms=%-12.3f self_ms=%-12.3f self_per_call_us=%.2f",
			st.name, st.n, ms(st.total), ms(st.self), us(st.self)/float64(st.n)))
	}
	if err := tr.write(filepath.Join(".bench_build", "perfbench",
		fmt.Sprintf("spans-%s-%s.json", spec.name, rep.seed))); err != nil {
		rep.line("could not write spans: " + err.Error())
	}
	out.metrics = l.metrics
	return out, nil
}

// layerSet is a set of the layers a workload crosses, in its timed
// window or in its setup.
type layerSet uint

const (
	layerDecode layerSet = 1 << iota // core codec
	layerTree
	layerKey
	layerEngine
	layerEncode
	layerSession
	layerCluster
	layerWire
	layerMG // heuristics, one per solver
	layerMB
	layerCBU
	layerUTD
)

// perLayer lists the per-layer metrics (BENCHMARK.json "per_layer") in
// the order they are printed, each with the layer it belongs to. A zero
// layer is measured on every workload: the client and the HTTP
// envelope, the runtime, the generator, and the LP bounds and campaign
// rows of the run's own Section 7 sweep.
var perLayer = []struct {
	name, unit string
	layer      layerSet
}{
	{"trace.untraced_rps", "1/s", 0},
	{"trace.traced_rps", "1/s", 0},
	{"trace.overhead_share", "ratio", 0},
	{"http.client_us", "us", 0},
	{"runtime.gc_cycles", "count", 0},
	{"runtime.gc_pause_ms", "ms", 0},
	{"http.conns_dialed", "count", 0},
	{"engine.hit_ratio", "ratio", layerEngine},
	{"engine.queue_wait_ms_p50", "ms", layerEngine},
	{"engine.queue_wait_ms_p99", "ms", layerEngine},
	{"engine.errors", "count", layerEngine},
	{"session.full_ratio", "ratio", layerSession},
	{"cluster.short_circuit_ratio", "ratio", layerCluster},
	{"cluster.chunk_ms_p50", "ms", layerCluster},
	{"cluster.chunk_ms_p99", "ms", layerCluster},
	{"cluster.reorder_wait_ms_p99", "ms", layerCluster},
	{"cluster.local_fallback_rows", "count", layerCluster},
	{"cluster.wire_fallbacks", "count", layerCluster},
	{"cluster.wire_conns_dialed", "count", layerCluster},
	{"core.decode_us", "us", layerDecode},
	{"core.decode_allocs", "count", layerDecode},
	{"tree.from_parents_us", "us", layerTree},
	{"service.key_us", "us", layerKey},
	{"service.key_allocs", "count", layerKey},
	{"engine.miss_ms", "ms", layerEngine},
	{"engine.hit_us", "us", layerEngine},
	{"service.encode_us", "us", layerEncode},
	{"service.encode_allocs", "count", layerEncode},
	{"http.handler_us", "us", 0},
	{"http.net_us", "us", 0},
	{"heuristics.mg_ms", "ms", layerMG},
	{"heuristics.mb_ms", "ms", layerMB},
	{"heuristics.cbu_ms", "ms", layerCBU},
	{"heuristics.utd_ms", "ms", layerUTD},
	{"heuristics.allocs_per_call", "count", layerMG | layerMB | layerCBU | layerUTD},
	{"gen.instance_ms", "ms", 0},
	{"session.create_ms", "ms", layerSession},
	{"session.apply_incremental_us", "us", layerSession},
	{"session.apply_full_ms", "ms", layerSession},
	{"session.read_us", "us", layerSession},
	{"session.watch_lag_us", "us", layerSession},
	{"cluster.route_batch_ms", "ms", layerCluster},
	{"wire.encode_us", "us", layerWire},
	{"wire.decode_us", "us", layerWire},
	{"wire.bytes_per_variation", "bytes", layerWire},
	{"lpbound.rational_ms", "ms", 0},
	{"lpbound.refined_ms", "ms", 0},
	{"experiments.row_ms", "ms", 0},
}

// layerCounters are the stack counters read before and after the traced
// half window.
type layerCounters struct {
	dials     int64
	engine    service.Stats
	queueWait obs.HistogramSnapshot
	cluster   service.ClusterStats
	chunk     obs.HistogramSnapshot
	reorder   obs.HistogramSnapshot
	sessions  session.Stats
}

func readLayerCounters(li *layerInputs) layerCounters {
	var c layerCounters
	if li.dials != nil {
		c.dials = li.dials()
	}
	for _, e := range li.engines {
		st := e.Stats()
		c.engine.Requests += st.Requests
		c.engine.CacheHits += st.CacheHits
		c.engine.Errors += st.Errors
		_, qw := e.SolveHistograms()
		for _, h := range qw {
			c.queueWait = addHist(c.queueWait, h)
		}
	}
	if li.pool != nil {
		c.cluster = li.pool.ClusterStats()
		h := li.pool.ClusterHistograms()
		c.chunk, c.reorder = h.BatchChunk, h.ReorderWait
	}
	if li.sessions != nil {
		c.sessions = li.sessions.Stats()
	}
	return c
}

// ladder gathers the per-layer metrics of one traced run.
type ladder struct {
	tr      *tracer
	rep     *report
	seed    int64
	crosses layerSet
	metrics []metric
	// values by name, for the layer-share lines.
	vals map[string]float64
}

func (l *ladder) add(name, unit string, v float64) {
	l.metrics = append(l.metrics, metric{name, unit, v})
	if l.vals == nil {
		l.vals = map[string]float64{}
	}
	l.vals[name] = v
}

// on reports whether the workload crosses any layer of set; the empty
// set is crossed by every workload.
func (l *ladder) on(set layerSet) bool { return set == 0 || l.crosses&set != 0 }

// complete orders the metrics as perLayer lists them and reports each
// metric of a layer the workload does not cross as 0, so that every
// traced run prints the whole list; a '#' line names those metrics. A
// metric missing from a crossed layer, or not in the list, is an error.
func (l *ladder) complete() error {
	got := make(map[string]metric, len(l.metrics))
	for _, m := range l.metrics {
		got[m.name] = m
	}
	out := make([]metric, 0, len(perLayer))
	var absent []string
	for _, pm := range perLayer {
		m, ok := got[pm.name]
		delete(got, pm.name)
		switch {
		case ok && m.unit != pm.unit:
			return fmt.Errorf("metric %s measured in %s, listed in %s", pm.name, m.unit, pm.unit)
		case ok:
			out = append(out, m)
		case l.on(pm.layer):
			return fmt.Errorf("metric %s of a crossed layer was not measured", pm.name)
		default:
			out = append(out, metric{pm.name, pm.unit, 0})
			absent = append(absent, pm.name)
		}
	}
	for name := range got {
		return fmt.Errorf("metric %s is not in the per-layer list", name)
	}
	l.metrics = out
	if len(absent) > 0 {
		l.rep.line("not crossed by this workload, reported as 0: " + strings.Join(absent, " "))
	}
	return nil
}

// windowCounters reports the counters the stack itself kept across the
// traced half window, for the layers the workload crosses.
func (l *ladder) windowCounters(before, after layerCounters) {
	if l.on(layerEngine) {
		l.engineCounters(before, after)
	}
	if l.on(layerSession) {
		inc := float64(after.sessions.IncrementalSolves - before.sessions.IncrementalSolves)
		full := float64(after.sessions.FullSolves - before.sessions.FullSolves)
		l.rep.line(fmt.Sprintf("session batches applied in traced window: %.0f (base of session.full_ratio)", inc+full))
		l.add("session.full_ratio", "ratio", ratio(full, inc+full))
	}
	if l.on(layerCluster) {
		l.clusterCounters(before, after)
	}
}

func (l *ladder) engineCounters(before, after layerCounters) {
	reqs := float64(after.engine.Requests - before.engine.Requests)
	hits := float64(after.engine.CacheHits - before.engine.CacheHits)
	l.rep.line(fmt.Sprintf("engine requests in traced window: %.0f (base of engine.hit_ratio)", reqs))
	l.add("engine.hit_ratio", "ratio", ratio(hits, reqs))
	qw := subHist(after.queueWait, before.queueWait)
	l.add("engine.queue_wait_ms_p50", "ms", 1000*histQuantile(qw, 0.5))
	l.add("engine.queue_wait_ms_p99", "ms", 1000*histQuantile(qw, 0.99))
	l.add("engine.errors", "count", float64(after.engine.Errors-before.engine.Errors))
}

func (l *ladder) clusterCounters(before, after layerCounters) {
	b, a := before.cluster, after.cluster
	shorts := float64(a.BatchCacheShortCircuits - b.BatchCacheShortCircuits)
	routed := float64(a.RowsRouted-b.RowsRouted) + shorts + float64(a.RowsLocalFallback-b.RowsLocalFallback)
	l.rep.line(fmt.Sprintf("routed variations: %.0f (base of cluster.short_circuit_ratio)", routed))
	l.add("cluster.short_circuit_ratio", "ratio", ratio(shorts, routed))
	chunk := subHist(after.chunk, before.chunk)
	l.add("cluster.chunk_ms_p50", "ms", 1000*histQuantile(chunk, 0.5))
	l.add("cluster.chunk_ms_p99", "ms", 1000*histQuantile(chunk, 0.99))
	l.add("cluster.reorder_wait_ms_p99", "ms", 1000*histQuantile(subHist(after.reorder, before.reorder), 0.99))
	l.add("cluster.local_fallback_rows", "count", float64(a.RowsLocalFallback-b.RowsLocalFallback))
	l.add("cluster.wire_fallbacks", "count", float64(a.WireFallbacks-b.WireFallbacks))
	l.add("cluster.wire_conns_dialed", "count", float64(a.WireConnections-b.WireConnections))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed runs f n times, each call under its own root span named name,
// and returns the median call time. A separate untraced pass over the
// same calls counts heap allocations per call.
func (l *ladder) timed(name string, n int, f func(ctx context.Context, i int) error) (time.Duration, float64, error) {
	if n < 1 {
		n = 1
	}
	ds := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		ctx, root := l.tr.begin(context.Background(), name)
		start := time.Now()
		err := f(ctx, i)
		ds[i] = time.Since(start)
		l.tr.end(root)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	before := readRuntime().allocs
	for i := 0; i < n; i++ {
		if err := f(context.Background(), i); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	allocs := float64(readRuntime().allocs-before) / float64(n)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], allocs, nil
}

// ladderSample is how many of a workload's instances the direct layer
// calls visit.
const ladderSample = 32

// sampleIndex is the instance the i-th sampled call visits: spread
// evenly over the list, stepping one further each time so that a
// rotating solver assignment is sampled in rotation too.
func sampleIndex(i, n int) int {
	if n <= ladderSample {
		return i % n
	}
	return (i*n/ladderSample + i) % n
}

// run makes the direct calls into the layers the workload crosses.
func (l *ladder) run(li *layerInputs, clientP50 time.Duration) error {
	insts := li.insts
	// Workloads with one or two huge instances still get a few calls.
	n := max(min(len(insts), ladderSample), 4)
	sample := make([]*core.Instance, n)
	solvers := make([]string, n)
	for i := range sample {
		j := sampleIndex(i, len(insts))
		sample[i], solvers[i] = insts[j], li.solvers[j%len(li.solvers)]
	}
	// A fresh engine with the daemon defaults serves the engine and
	// encode layers.
	eng := service.NewEngine(service.EngineOptions{})
	defer eng.Close(context.Background())

	steps := []struct {
		set layerSet
		f   func() error
	}{
		{layerDecode, func() error { return l.decode(sample) }},
		{layerTree, func() error { return l.tree(sample) }},
		{layerKey, func() error { return l.key(sample, solvers) }},
		{layerEngine, func() error { return l.engine(eng, sample, solvers) }},
		{layerEncode, func() error { return l.encode(li, eng, sample, solvers) }},
		{0, func() error { return l.handler(li, clientP50) }},
		{layerMG | layerMB | layerCBU | layerUTD, func() error { return l.heuristics(sample) }},
		{layerSession, func() error { return l.session(li) }},
		{layerCluster, func() error { return l.cluster(li) }},
		{layerWire, func() error { return l.wire(li) }},
		{0, l.bounds},
	}
	l.add("gen.instance_ms", "ms", li.genMS)
	for _, st := range steps {
		if l.on(st.set) {
			if err := st.f(); err != nil {
				return err
			}
		}
	}
	return nil
}

// decode times json.Unmarshal of the instances into *core.Instance.
func (l *ladder) decode(sample []*core.Instance) error {
	bodies := make([][]byte, len(sample))
	for i, in := range sample {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	d, allocs, err := l.timed("core.decode", len(bodies), func(_ context.Context, i int) error {
		var in core.Instance
		return json.Unmarshal(bodies[i], &in)
	})
	if err != nil {
		return err
	}
	l.add("core.decode_us", "us", us(d))
	l.add("core.decode_allocs", "count", allocs)
	return nil
}

func (l *ladder) tree(sample []*core.Instance) error {
	d, _, err := l.timed("tree.from_parents", len(sample), func(_ context.Context, i int) error {
		_, err := tree.FromParents(sample[i].Tree.Parents(), sample[i].Tree.ClientFlags())
		return err
	})
	if err != nil {
		return err
	}
	l.add("tree.from_parents_us", "us", us(d))
	return nil
}

func (l *ladder) key(sample []*core.Instance, solvers []string) error {
	d, allocs, err := l.timed("service.key", len(sample), func(_ context.Context, i int) error {
		service.Key(sample[i], solvers[i], service.Options{})
		return nil
	})
	if err != nil {
		return err
	}
	l.add("service.key_us", "us", us(d))
	l.add("service.key_allocs", "count", allocs)
	return nil
}

// engine times an engine miss (NoCache) and, once the results are
// cached, a hit.
func (l *ladder) engine(eng *service.Engine, sample []*core.Instance, solvers []string) error {
	reqOf := func(i int, noCache bool) service.Request {
		return service.Request{Instance: sample[i], Solver: solvers[i], Options: service.Options{NoCache: noCache}}
	}
	missN := len(sample)
	if sample[0].Tree.Len() > 20000 {
		missN = 2
	}
	d, _, err := l.timed("engine.miss", missN, func(ctx context.Context, i int) error {
		_, err := eng.Solve(ctx, reqOf(i%len(sample), true))
		return err
	})
	if err != nil {
		return err
	}
	l.add("engine.miss_ms", "ms", ms(d))
	for i := range sample {
		if _, err := eng.Solve(context.Background(), reqOf(i, false)); err != nil {
			return err
		}
	}
	d, _, err = l.timed("engine.hit", len(sample), func(ctx context.Context, i int) error {
		_, err := eng.Solve(ctx, reqOf(i, false))
		return err
	})
	if err != nil {
		return err
	}
	l.add("engine.hit_us", "us", us(d))
	return nil
}

// encode times what the workload's answers are encoded with: the rows
// of a batch (BatchLine.AppendJSON) or whole responses (json.Marshal).
func (l *ladder) encode(li *layerInputs, eng *service.Engine, sample []*core.Instance, solvers []string) error {
	var encN int
	var encode func(i int) error
	if li.batchAt != nil {
		payload := li.batchAt(0)
		var lines []service.BatchLine
		base, policy, err := payload.Build(eng)
		if err != nil {
			return err
		}
		err = eng.SolveBatch(context.Background(), service.BatchRequest{Base: base, Solver: payload.Solver,
			Policy: policy, Variations: payload.Variations}, func(it service.BatchItem) {
			lines = append(lines, service.BatchLine{Index: it.Index, Response: it.Response})
		})
		if err != nil {
			return err
		}
		var buf []byte
		encN, encode = len(lines), func(i int) error {
			var err error
			buf, err = lines[i].AppendJSON(buf[:0])
			return err
		}
	} else {
		resps := make([]*service.Response, len(sample))
		for i := range sample {
			var err error
			req := service.Request{Instance: sample[i], Solver: solvers[i]}
			if resps[i], err = eng.Solve(context.Background(), req); err != nil {
				return err
			}
		}
		encN, encode = len(resps), func(i int) error {
			_, err := json.Marshal(resps[i])
			return err
		}
	}
	d, allocs, err := l.timed("service.encode", encN, func(_ context.Context, i int) error { return encode(i) })
	if err != nil {
		return err
	}
	l.add("service.encode_us", "us", us(d))
	l.add("service.encode_allocs", "count", allocs)
	return nil
}

// handler times the stack's handler serving the workload's own requests
// into an in-memory recorder; net is the client's median minus that.
func (l *ladder) handler(li *layerInputs, clientP50 time.Duration) error {
	d, _, err := l.timed("http.handler", li.handlerCalls, func(ctx context.Context, i int) error {
		rec := httptest.NewRecorder()
		li.handler.ServeHTTP(rec, li.handlerReq(i).WithContext(ctx))
		if rec.Code/100 != 2 {
			return fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.add("http.handler_us", "us", us(d))
	l.add("http.net_us", "us", us(clientP50-d))
	return nil
}

// heuristics times direct calls of the solvers the workload runs.
func (l *ladder) heuristics(insts []*core.Instance) error {
	fns := []struct {
		name string
		set  layerSet
		f    heuristics.Func
	}{
		{"mg", layerMG, heuristics.MG}, {"mb", layerMB, heuristics.MB},
		{"cbu", layerCBU, heuristics.CBU}, {"utd", layerUTD, heuristics.UTD},
	}
	if insts[0].Tree.Len() > 20000 {
		insts = insts[:1]
	}
	var allocSum float64
	calls := 0
	for _, h := range fns {
		if !l.on(h.set) {
			continue
		}
		d, allocs, err := l.timed("heuristics."+h.name, len(insts), func(_ context.Context, i int) error {
			h.f(insts[i]) // no placement is an answer here, not a failure
			return nil
		})
		if err != nil {
			return err
		}
		l.add("heuristics."+h.name+"_ms", "ms", ms(d))
		allocSum += allocs
		calls++
	}
	l.add("heuristics.allocs_per_call", "count", allocSum/float64(calls))
	return nil
}

// session times the session layer on a fresh manager over one of the
// workload's instances: cold create, incremental and full deltas,
// status reads, and how long a watcher waits for a revision's diff.
func (l *ladder) session(li *layerInputs) error {
	in, solver := li.insts[0], li.solvers[0]
	mgr := session.NewManager(session.Options{Resolve: service.SessionResolver(service.NewRegistry())})
	defer mgr.Close()
	policy := core.Multiple
	if solver == "cbu" {
		policy = core.Closest
	}
	var s *session.Session
	d, _, err := l.timed("session.create", 1, func(ctx context.Context, _ int) error {
		var err error
		s, err = mgr.Create(ctx, in, solver, policy)
		return err
	})
	if err != nil {
		return err
	}
	l.add("session.create_ms", "ms", ms(d))
	clients := in.Tree.Clients()
	internal := in.Tree.Internal()
	var inc, full []time.Duration
	apply := func(ctx context.Context, ops []session.Op) error {
		start := time.Now()
		res, err := s.Apply(ctx, ops)
		if err != nil {
			return err
		}
		if res.Mode == "incremental" {
			inc = append(inc, time.Since(start))
		} else {
			full = append(full, time.Since(start))
		}
		return nil
	}
	if _, _, err := l.timed("session.apply", 200, func(ctx context.Context, i int) error {
		c := clients[(i*7919)%len(clients)]
		return apply(ctx, []session.Op{{Op: session.OpSetRate, Vertex: c, Value: int64(1 + i%100)}})
	}); err != nil {
		return err
	}
	if _, _, err := l.timed("session.apply", 4, func(ctx context.Context, i int) error {
		return apply(ctx, []session.Op{{Op: session.OpAddClient, Parent: internal[(i*31)%len(internal)], Rate: 10}})
	}); err != nil {
		return err
	}
	l.add("session.apply_incremental_us", "us", us(medianDur(inc)))
	l.add("session.apply_full_ms", "ms", ms(medianDur(full)))
	d, _, err = l.timed("session.read", 200, func(_ context.Context, _ int) error {
		s.Status()
		return nil
	})
	if err != nil {
		return err
	}
	l.add("session.read_us", "us", us(d))

	// Watch lag: the time from Apply returning to the watcher's send.
	// The watcher resumes from the current revision, so it sees every
	// later diff however late its goroutine starts; the first delta
	// (i == 0) is a warm-up and not counted.
	got := make(chan time.Time, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	from := s.Status().Rev
	go func() {
		defer close(done)
		s.Watch(ctx, from, true, func(session.Diff) error {
			select {
			case got <- time.Now():
			case <-ctx.Done():
			}
			return nil
		})
	}()
	var lags []time.Duration
	for i := 0; i <= 50; i++ {
		c := clients[(i*104729)%len(clients)]
		if _, err := s.Apply(ctx, []session.Op{{Op: session.OpSetRate, Vertex: c, Value: int64(1 + i%97)}}); err != nil {
			cancel()
			<-done
			return err
		}
		applied := time.Now()
		if lag := (<-got).Sub(applied); i > 0 {
			lags = append(lags, lag)
		}
	}
	cancel()
	<-done
	l.add("session.watch_lag_us", "us", us(medianDur(lags)))
	return nil
}

// cluster times Pool.RouteBatch on the stack's own pool, with batches of
// the workload's ladder stream, whose rows no cache has seen.
func (l *ladder) cluster(li *layerInputs) error {
	coord := li.engines[0]
	const n = 4
	type routed struct {
		payload *service.BatchPayload
		base    *core.Instance
		policy  core.Policy
	}
	batches := make([]routed, n)
	for i := range batches {
		p := li.batchAt(1 + li.handlerCalls + i)
		base, policy, err := p.Build(coord)
		if err != nil {
			return err
		}
		batches[i] = routed{p, base, policy}
	}
	d, _, err := l.timed("cluster.route_batch", n, func(ctx context.Context, i int) error {
		b := batches[i]
		return li.pool.RouteBatch(ctx, coord, b.base, b.policy, b.payload, func(line service.BatchLine) error {
			if line.Error != "" {
				return fmt.Errorf("row %d: %s", line.Index, line.Error)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	l.add("cluster.route_batch_ms", "ms", ms(d))
	return nil
}

// wire times the wire codec on a batch of the workload's, cut the way
// RouteBatch cuts it over two weight-1 shards (four chunks).
func (l *ladder) wire(li *layerInputs) error {
	chunks := chunkPayload(li.batchAt(0), 4)
	var bufs [][]byte
	vars := 0
	for _, c := range chunks {
		bufs = append(bufs, wire.AppendBatchRequest(nil, c))
		vars += len(c.Variations)
	}
	var buf []byte
	d, _, err := l.timed("wire.encode", len(chunks)*4, func(_ context.Context, i int) error {
		buf = wire.AppendBatchRequest(buf[:0], chunks[i%len(chunks)])
		return nil
	})
	if err != nil {
		return err
	}
	l.add("wire.encode_us", "us", us(d))
	d, _, err = l.timed("wire.decode", len(chunks)*4, func(_ context.Context, i int) error {
		_, err := wire.DecodeBatchRequest(bufs[i%len(bufs)])
		return err
	})
	if err != nil {
		return err
	}
	l.add("wire.decode_us", "us", us(d))
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	l.add("wire.bytes_per_variation", "bytes", float64(total)/float64(vars))
	return nil
}

// sweepLambdas is the paper's Section 7 sweep.
var sweepLambdas = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// bounds times the LP bounds and the rows of a Section 7 campaign, on
// the paper's λ sweep generated from the run's seed. No workload of the
// benchmark sends campaigns (README.md says why), so every traced run
// measures these layers this way: the bounds on one homogeneous tree
// per λ of 15..120 vertices, the rows as the gaps between the rows of
// an experiments.Run with four such trees per λ on one goroutine.
func (l *ladder) bounds() error {
	trees := make([]*core.Instance, len(sweepLambdas))
	for k, lambda := range sweepLambdas {
		trees[k] = gen.SizeSweep(gen.Config{Lambda: lambda, UnitCosts: true},
			mix(l.seed, streamLadder, int64(k)), 1, 15, 120)[0]
	}
	d, _, err := l.timed("lpbound.rational", len(trees), func(_ context.Context, i int) error {
		_, err := lpbound.Rational(trees[i], core.Multiple)
		if errors.Is(err, lpbound.ErrInfeasible) {
			return nil
		}
		return err
	})
	if err != nil {
		return err
	}
	l.add("lpbound.rational_ms", "ms", ms(d))
	d, _, err = l.timed("lpbound.refined", len(trees), func(ctx context.Context, i int) error {
		_, err := lpbound.Refined(ctx, trees[i], core.Multiple, lpbound.Options{MaxNodes: 60})
		if errors.Is(err, lpbound.ErrInfeasible) {
			return nil
		}
		return err
	})
	if err != nil {
		return err
	}
	l.add("lpbound.refined_ms", "ms", ms(d))

	var gaps []time.Duration
	last := time.Now()
	_, err = experiments.Run(experiments.Config{
		Lambdas: sweepLambdas, TreesPerLambda: 4, Seed: mix(l.seed, streamLadder, int64(len(sweepLambdas))),
		Parallelism: 1,
		Progress: func(experiments.Row) error {
			now := time.Now()
			gaps = append(gaps, now.Sub(last))
			last = now
			return nil
		},
	})
	if err != nil {
		return err
	}
	l.add("experiments.row_ms", "ms", ms(medianDur(gaps)))
	return nil
}

// shares prints how much of the client-observed median latency each
// layer of a request owns.
func (l *ladder) shares(clientP50 time.Duration) {
	total := us(clientP50)
	// Engine.Solve computes the cache key itself, so the engine's own
	// share of a hit is engine.hit_us minus service.key_us.
	parts := []struct {
		label string
		v     float64
	}{
		{"core decode", l.vals["core.decode_us"]},
		{"service key", l.vals["service.key_us"]},
		{"engine probe (hit - key)", l.vals["engine.hit_us"] - l.vals["service.key_us"]},
		{"service encode", l.vals["service.encode_us"]},
		{"net (client - handler)", l.vals["http.net_us"]},
	}
	sum := 0.0
	for _, p := range parts {
		v := p.v
		sum += v
		l.rep.line(fmt.Sprintf("share %-24s %9.2f us  %5.1f%% of client p50 %.2f us", p.label, v, 100*v/total, total))
	}
	l.rep.line(fmt.Sprintf("share %-24s %9.2f us  %5.1f%%", "accounted", sum, 100*sum/total))
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// chunkPayload splits p's variations into n chunks of equal size.
func chunkPayload(p *service.BatchPayload, n int) []*service.BatchPayload {
	size := (len(p.Variations) + n - 1) / n
	var out []*service.BatchPayload
	for start := 0; start < len(p.Variations); start += size {
		end := start + size
		if end > len(p.Variations) {
			end = len(p.Variations)
		}
		c := *p
		c.Variations = p.Variations[start:end]
		out = append(out, &c)
	}
	return out
}

// addHist and subHist combine histogram snapshots bucket by bucket.
func addHist(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	if a.Counts == nil {
		a = obs.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]uint64, len(b.Counts))}
	}
	for i := range b.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}

func subHist(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	out := obs.HistogramSnapshot{Bounds: a.Bounds, Counts: append([]uint64(nil), a.Counts...), Count: a.Count, Sum: a.Sum}
	for i := range b.Counts {
		if i < len(out.Counts) {
			out.Counts[i] -= b.Counts[i]
		}
	}
	out.Count -= b.Count
	out.Sum -= b.Sum
	return out
}

// histQuantile estimates a quantile in seconds from a bucketed
// histogram, linearly within the bucket; 0 when it is empty.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	lo := 0.0
	for i, c := range h.Counts {
		hi := lo
		if i < len(h.Bounds) {
			hi = h.Bounds[i]
		}
		if cum+float64(c) >= target && c > 0 {
			if i >= len(h.Bounds) {
				return lo
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
		lo = hi
	}
	return lo
}
