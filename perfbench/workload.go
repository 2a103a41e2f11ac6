package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/session"
)

// workload is one seeded traffic mix against the stack.
type workload interface {
	// inputs generates the workload's inputs from its seed alone.
	inputs() error
	// setup generates the inputs, starts the stack and primes caches,
	// sessions and connections.
	setup() error
	// request sends client c's next request and checks its answer.
	request(ctx context.Context, c int) error
	// verify runs the checks that need the whole window's answers.
	verify() error
	// checkSet reports the answers of the fixed, seed-determined check
	// set collected during setup.
	checkSet() checkSet
	// layers hands the traced run the workload's inputs and stack.
	layers() *layerInputs
	// streamHash digests the first n requests of every client's stream
	// without sending them.
	streamHash(n int) string
	close()
}

// checkSet summarizes the check set's answers: placement_cost is cost,
// solved_share is solved/answers.
type checkSet struct {
	answers, solved int
	cost            float64
}

// scale selects input sizes: fullScale for the benchmark, testScale for
// the benchmark's own tests.
type scale int

const (
	fullScale scale = iota
	testScale
)

type workloadSpec struct {
	name, why string
	// lambda states the generator's target load for the workload.
	lambda  string
	clients int
	// tail is the latency percentile reported as latency_tail_ms: the
	// highest one that keeps at least ten samples beyond it at the
	// workload's usual rate.
	tail float64
	// crosses is the set of layers the traced run times.
	crosses layerSet
	build   func(seed int64, sc scale) workload
}

var workloads = []workloadSpec{
	{
		name:    "solve-hot",
		why:     "cache-hit POST /v1/solve: decode, key, cache probe and encode do all the work, the solver none",
		lambda:  "0.1 (gen.SizeSweep, sizes 15..400)",
		clients: 2,
		tail:    0.99,
		crosses: layerDecode | layerTree | layerKey | layerEngine | layerEncode |
			layerMG | layerMB | layerCBU | layerUTD,
		build: newSolveHot,
	},
	{
		name:    "batch-routed",
		why:     "POST /v1/batch routed over two rp-wire workers: solver core, cluster routing and wire codec",
		lambda:  "0.2 (gen.Instance, 10^4 vertices)",
		clients: 1,
		tail:    0.95,
		// The batch's one topology is interned once, in setup, so the
		// tree build is not crossed.
		crosses: layerKey | layerEngine | layerEncode | layerMG | layerCluster | layerWire,
		build:   newBatchRouted,
	},
	{
		name:    "session-churn",
		why:     "PATCH deltas and GET reads on two 10^5-vertex sessions: incremental re-solve under the session lock",
		lambda:  "0.1 (gen.Instance, 10^5 vertices)",
		clients: 2,
		tail:    0.99,
		// Setup decodes the two instances and builds their trees; the
		// sessions re-solve with the registry's solvers, not the engine.
		crosses: layerDecode | layerTree | layerSession | layerMG | layerCBU,
		build:   newSessionChurn,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// layerInputs is what the traced run needs from a workload: the layers
// it crosses, its own instances for the direct layer calls, and its
// stack for the counters read across the traced window.
type layerInputs struct {
	// crosses is the set of layers the workload's requests (or its
	// setup) go through; the ladder times only those.
	crosses layerSet
	// insts are the workload's own instances; solvers[i%len] is the
	// solver applied to insts[i], and the solvers are the heuristics
	// the workload runs.
	insts   []*core.Instance
	solvers []string
	// genMS is the generator's time per instance, measured in setup.
	genMS float64
	// handler is the stack's front handler; handlerReq builds the i-th
	// request the workload would send (a fresh one each call).
	handler      http.Handler
	handlerReq   func(i int) *http.Request
	handlerCalls int
	// engines, pool and sessions are the stack's layers (nil if unused).
	engines  []*service.Engine
	pool     *cluster.Pool
	sessions *session.Manager
	// batchAt builds the i-th batch payload of the workload's ladder
	// stream, for the encode, cluster and wire layers (batch-routed).
	batchAt func(i int) *service.BatchPayload
	// dials counts the connections the workload's clients opened.
	dials func() int64
	// shares asks for the per-layer shares of the client's latency,
	// which add up only when one request crosses each layer once.
	shares bool
}

// Request streams of a workload: the timed window's, the check set's,
// and the one the traced run's direct layer calls draw from.
const (
	streamWindow int64 = iota + 1
	streamWarm
	streamLadder
)

// digest hashes request bodies into one hex string.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mix folds values into one non-zero seed (splitmix64 steps).
func mix(vals ...int64) int64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		h ^= uint64(v)
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	s := int64(h >> 1)
	if s == 0 {
		s = 1
	}
	return s
}
