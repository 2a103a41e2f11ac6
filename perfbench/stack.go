package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/wire"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/session"
)

// server is one in-process daemon wired the way cmd/rpserve wires it
// with its default flags: engine (GOMAXPROCS workers, 4096-entry cache,
// 60s deadline), flight recorder at full sampling, event journal,
// rp-wire endpoint, in-memory job manager and placement sessions. A
// worker shard is wired like cmd/rpworker instead: no jobs, no
// sessions, unbounded inline campaigns.
type server struct {
	engine   *service.Engine
	handler  http.Handler
	sessions *session.Manager
	jobs     *jobs.Manager
	wire     *wire.Server
	srv      *http.Server
	addr     string
	served   chan struct{}
}

type serverConfig struct {
	workers int           // engine workers; 0 = GOMAXPROCS
	cache   int           // retained results; 0 = the daemons' 4096
	worker  bool          // serve as a worker shard
	pool    *cluster.Pool // front this shard pool as a coordinator
}

// startServer builds the daemon and serves it on a loopback listener
// that is bound before startServer returns, so the first request needs
// no readiness poll.
func startServer(cfg serverConfig) (*server, error) {
	logger := obs.NopLogger()
	registry := service.NewRegistry()
	if cfg.pool != nil {
		if err := cluster.RegisterRemote(registry, cfg.pool); err != nil {
			return nil, err
		}
	}
	s := &server{served: make(chan struct{})}
	s.engine = service.NewEngine(service.EngineOptions{
		Workers:        cfg.workers,
		CacheSize:      cmp.Or(cfg.cache, 4096),
		DefaultTimeout: 60 * time.Second,
		Registry:       registry,
		Logger:         logger,
	})
	spans := obs.NewSpanStore(obs.DefaultSpanCapacity)
	events := obs.NewEventRing(obs.DefaultEventCapacity, logger)
	s.wire = wire.NewServer(s.engine, logger)
	s.wire.Spans = spans
	opts := service.HandlerOptions{
		Logger:      logger,
		Spans:       spans,
		TraceSample: 1,
		Events:      events,
		Wire:        s.wire,
	}
	if cfg.worker {
		opts.MaxInlineCampaigns = -1
	} else {
		var kinds []jobs.Kind
		if cfg.pool != nil {
			kinds = cluster.Kinds(s.engine, cfg.pool)
			opts.Cluster = cfg.pool
		}
		mgr, err := service.NewJobsManagerOpts(s.engine, service.JobsOptions{
			Workers: 2, Kinds: kinds, Logger: logger, Spans: spans, Events: events,
		})
		if err != nil {
			s.engine.Close(context.Background())
			return nil, err
		}
		s.jobs = mgr
		opts.Jobs = mgr
		s.sessions = session.NewManager(session.Options{
			Resolve: service.SessionResolver(s.engine.Registry()),
			Logger:  logger,
		})
		opts.Sessions = s.sessions
	}
	s.handler = service.NewHandlerOpts(s.engine, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeParts()
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the daemon: the listener and every connection, then
// sessions (ending their watch streams), the hijacked wire connections,
// jobs and the engine, waiting for the engine's workers.
func (s *server) close() {
	s.srv.Close()
	<-s.served
	s.closeParts()
}

func (s *server) closeParts() {
	if s.sessions != nil {
		s.sessions.Close()
	}
	s.wire.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.jobs != nil {
		s.jobs.Close(ctx)
	}
	s.engine.Close(ctx)
}

// clusterStack is a coordinator over two in-process rp-wire worker
// shards, each with one engine worker and a 64-result cache (rpworker
// -workers 1 -cache 64). Routed work reaches a worker only on a
// coordinator cache miss, so a worker's cache is written and not read;
// left at 4096 results of a 10^4-vertex solve each, it would make the
// process's memory grow with the number of batches a run completes.
type clusterStack struct {
	coord   *server
	workers []*server
	pool    *cluster.Pool
}

// startCluster starts the workers, joins them with an explicit weight
// (a zero weight would let the pool re-weight them from a background
// probe mid-run) and starts the coordinator. Health probing and metrics
// federation are off: both poll the shards on timers.
func startCluster() (*clusterStack, error) {
	cs := &clusterStack{}
	pool, err := cluster.NewPool(nil, cluster.PoolOptions{
		ProbeInterval:    -1,
		FederateInterval: -1,
		Logger:           obs.NopLogger(),
	})
	if err != nil {
		return nil, err
	}
	cs.pool = pool
	for i := 0; i < 2; i++ {
		w, err := startServer(serverConfig{workers: 1, cache: 64, worker: true})
		if err != nil {
			cs.close()
			return nil, err
		}
		cs.workers = append(cs.workers, w)
		if _, _, err := pool.AddShard(w.addr, 1); err != nil {
			cs.close()
			return nil, err
		}
	}
	cs.coord, err = startServer(serverConfig{pool: pool})
	if err != nil {
		cs.close()
		return nil, err
	}
	return cs, nil
}

func (cs *clusterStack) close() {
	if cs.coord != nil {
		cs.coord.close()
	}
	if cs.pool != nil {
		cs.pool.Close()
	}
	for _, w := range cs.workers {
		w.close()
	}
}

// engines lists every engine of the stack, coordinator first.
func (cs *clusterStack) engines() []*service.Engine {
	out := []*service.Engine{cs.coord.engine}
	for _, w := range cs.workers {
		out = append(out, w.engine)
	}
	return out
}

// client is one benchmark caller: its own transport holding exactly one
// keep-alive connection, opened by a warm request during setup.
type client struct {
	base  string
	hc    *http.Client
	tr    *http.Transport
	buf   bytes.Buffer
	dials *atomic.Int64
}

func newClient(addr string, dials *atomic.Int64) *client {
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
			dials.Add(1)
			return (&net.Dialer{}).DialContext(ctx, network, a)
		},
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr}, tr: tr, dials: dials}
}

// do sends one request and returns the status and the whole body; the
// body slice is reused by the next call on this client.
func (c *client) do(ctx context.Context, method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if id := obs.Trace(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
		req.Header.Set(obs.ParentSpanHeader, obs.FormatSpanID(obs.ParentSpan(ctx)))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// post sends a JSON body and fails on any status but want.
func (c *client) post(ctx context.Context, path string, body []byte, want int) ([]byte, error) {
	status, out, err := c.do(ctx, http.MethodPost, path, "application/json", body)
	if err != nil {
		return nil, err
	}
	if status != want {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", path, status, out)
	}
	return out, nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }
