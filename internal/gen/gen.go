// Package gen produces seeded random problem instances for the Section 7
// experimental campaign: random tree shapes with clients at the leaves,
// request distributions, and capacities scaled so that the total load
// λ = Σ r_i / Σ W_j matches a target. All generation is deterministic
// given the seed.
package gen

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/tree"
)

// Attachment selects how clients attach to the internal skeleton.
type Attachment int

const (
	// AttachBalanced deals clients over the non-root internal nodes with
	// weight (depth+1)² but round-robin striding, so per-subtree demand
	// stays even while clients concentrate at the fringe. This is the
	// default: even spread keeps instances feasible deep into the
	// high-load regime, and fringe placement keeps clients off the chain
	// tops that the top-down heuristics saturate first.
	AttachBalanced Attachment = iota
	// AttachDeep samples the attachment node with probability proportional
	// to (depth+1)², concentrating clients at the fringe.
	AttachDeep
	// AttachUniform samples uniformly over all internal nodes, including
	// the root.
	AttachUniform
)

// Config controls instance generation. Zero values select the defaults
// documented on each field.
type Config struct {
	// Internal is the number of internal vertices (candidate servers).
	// Default 10.
	Internal int
	// Clients is the number of clients. Default equal to Internal.
	Clients int
	// Attach selects the client attachment strategy (default
	// AttachBalanced).
	Attach Attachment
	// Lambda is the target load Σr/ΣW. Default 0.5.
	Lambda float64
	// Heterogeneous selects per-node random capacities (uniform within a
	// 1:4 spread) instead of one shared capacity.
	Heterogeneous bool
	// MinRequests/MaxRequests bound the per-client request counts.
	// Defaults 1 and 100.
	MinRequests, MaxRequests int64
	// UnitCosts sets s_j = 1 (Replica Counting) instead of s_j = W_j
	// (Replica Cost). The paper uses unit costs in the homogeneous
	// campaign and s_j = W_j in the heterogeneous one.
	UnitCosts bool
	// QoSRange, when positive, draws a hop-distance QoS bound per client
	// uniformly in [1, QoSRange]. Zero disables QoS.
	QoSRange int
	// BWFactor, when positive, sets every link bandwidth to
	// ceil(BWFactor × tflow(link)) — the fraction of the traffic that
	// would cross the link if everything were served at the root. Zero
	// disables bandwidth caps.
	BWFactor float64
}

func (c Config) withDefaults() Config {
	if c.Internal <= 0 {
		c.Internal = 10
	}
	if c.Clients <= 0 {
		c.Clients = c.Internal
	}
	if c.Lambda <= 0 {
		c.Lambda = 0.5
	}
	if c.MinRequests <= 0 {
		c.MinRequests = 1
	}
	if c.MaxRequests < c.MinRequests {
		c.MaxRequests = c.MinRequests + 99
	}
	return c
}

// Instance generates a random instance from the config and seed.
func Instance(cfg Config, seed int64) *core.Instance {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))

	// Random tree shape. The skeleton attaches each new internal node to
	// an earlier node sampled with probability proportional to depth+1,
	// which yields deeper trees than the uniform recursive-tree model
	// (deep paths give every client several candidate servers, as in the
	// paper's distribution trees).
	b := tree.NewBuilder()
	internal := make([]int, 0, cfg.Internal)
	depth := make([]int, 0, cfg.Internal)
	internal = append(internal, b.AddRoot())
	depth = append(depth, 0)
	// The depth-weighted pick draws x in [0, Σw) and takes the first
	// vertex whose running weight sum exceeds x; a Fenwick tree finds it
	// in O(log n) per insert with the same draw, so instances match the
	// plain linear scan byte for byte.
	weights := newFenwick(cfg.Internal)
	weights.add(0, 1)
	for k := 1; k < cfg.Internal; k++ {
		p := weights.search(rng.Intn(weights.total))
		internal = append(internal, b.AddNode(internal[p]))
		depth = append(depth, depth[p]+1)
		weights.add(k, depth[k]+1)
	}
	clients := make([]int, 0, cfg.Clients)
	switch cfg.Attach {
	case AttachBalanced:
		// Deal order: each non-root node appears (depth+1)² times; the
		// shuffled deal is then sampled with a stride so the clients
		// spread evenly across it.
		var deal []int
		for i := range internal {
			if internal[i] == internal[0] && len(internal) > 1 {
				continue // keep clients off the root when possible
			}
			w := (depth[i] + 1) * (depth[i] + 1)
			for k := 0; k < w; k++ {
				deal = append(deal, internal[i])
			}
		}
		rng.Shuffle(len(deal), func(i, j int) { deal[i], deal[j] = deal[j], deal[i] })
		stride := len(deal) / cfg.Clients
		if stride < 1 {
			stride = 1
		}
		for k := 0; k < cfg.Clients; k++ {
			clients = append(clients, b.AddClient(deal[(k*stride)%len(deal)]))
		}
	case AttachDeep:
		// Fixed weights (depth+1)²: binary search over their running sums.
		cum := make([]int, len(internal))
		total := 0
		for i, d := range depth {
			total += (d + 1) * (d + 1)
			cum[i] = total
		}
		for k := 0; k < cfg.Clients; k++ {
			x := rng.Intn(total)
			p := sort.Search(len(cum), func(i int) bool { return cum[i] > x })
			clients = append(clients, b.AddClient(internal[p]))
		}
	case AttachUniform:
		for k := 0; k < cfg.Clients; k++ {
			clients = append(clients, b.AddClient(internal[rng.Intn(len(internal))]))
		}
	default:
		panic(fmt.Sprintf("gen: unknown attachment strategy %d", cfg.Attach))
	}
	t, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("gen: internal error building tree: %v", err))
	}

	in := core.NewInstance(t)
	var totalR int64
	for _, c := range clients {
		r := cfg.MinRequests + rng.Int63n(cfg.MaxRequests-cfg.MinRequests+1)
		in.R[c] = r
		totalR += r
	}

	// Capacities: ΣW ≈ ΣR / λ.
	targetW := float64(totalR) / cfg.Lambda
	if cfg.Heterogeneous {
		// Draw weights in [1,4), normalize to the target sum.
		weights := make([]float64, cfg.Internal)
		var sum float64
		for i := range weights {
			weights[i] = 1 + 3*rng.Float64()
			sum += weights[i]
		}
		for i, j := range internal {
			w := int64(weights[i] / sum * targetW)
			if w < 1 {
				w = 1
			}
			in.W[j] = w
		}
	} else {
		w := int64(targetW / float64(cfg.Internal))
		if w < 1 {
			w = 1
		}
		for _, j := range internal {
			in.W[j] = w
		}
	}
	for _, j := range internal {
		if cfg.UnitCosts {
			in.S[j] = 1
		} else {
			in.S[j] = in.W[j]
		}
	}

	if cfg.QoSRange > 0 {
		in.Q = make([]int, t.Len())
		for i := range in.Q {
			in.Q[i] = core.NoQoS
		}
		for _, c := range clients {
			in.Q[c] = 1 + rng.Intn(cfg.QoSRange)
		}
	}
	if cfg.BWFactor > 0 {
		tf := in.TotalFlows()
		in.BW = make([]int64, t.Len())
		for v := 0; v < t.Len(); v++ {
			// Client access links stay uncapped: they must always carry
			// their own client's demand, so capping them below r_i would
			// make every instance trivially infeasible. Only internal
			// aggregation links are constrained.
			if v == t.Root() || t.IsClient(v) {
				in.BW[v] = core.NoBandwidth
				continue
			}
			in.BW[v] = int64(cfg.BWFactor*float64(tf[v])) + 1
		}
	}
	return in
}

// Batch generates n instances with consecutive derived seeds.
func Batch(cfg Config, seed int64, n int) []*core.Instance {
	out := make([]*core.Instance, n)
	for i := range out {
		out[i] = Instance(cfg, seed+int64(i)*7919)
	}
	return out
}

// SizeSweep generates instances whose problem size s = |C| + |N| is drawn
// uniformly in [minSize, maxSize] with two clients per internal node, as
// in the paper's experimental plan (15 ≤ s ≤ 400).
func SizeSweep(cfg Config, seed int64, n, minSize, maxSize int) []*core.Instance {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]*core.Instance, n)
	for i := range out {
		s := minSize + rng.Intn(maxSize-minSize+1)
		c := cfg
		c.Internal = s / 3
		if c.Internal < 2 {
			c.Internal = 2
		}
		c.Clients = s - c.Internal
		out[i] = Instance(c, seed+int64(i)*104729)
	}
	return out
}

// fenwick is a binary indexed tree over non-negative integer weights:
// point updates and "first index whose prefix sum exceeds x" in O(log n).
type fenwick struct {
	tree  []int // 1-based partial sums
	total int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

// add increases the weight of element i (0-based) by w.
func (f *fenwick) add(i, w int) {
	f.total += w
	for j := i + 1; j < len(f.tree); j += j & -j {
		f.tree[j] += w
	}
}

// search returns the smallest 0-based i with w[0]+…+w[i] > x, for
// 0 <= x < total.
func (f *fenwick) search(x int) int {
	pos := 0
	for step := 1 << (bits.Len(uint(len(f.tree)-1)) - 1); step > 0; step >>= 1 {
		if next := pos + step; next < len(f.tree) && f.tree[next] <= x {
			pos = next
			x -= f.tree[next]
		}
	}
	return pos
}
