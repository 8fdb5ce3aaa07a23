package serve

import "ntcsim/internal/rng"

// ClusterLoad is the balancer-visible state of one cluster at dispatch
// time: how many cores are serving and how many requests wait behind
// them. Balancers see nothing else — no latency history, no frequency —
// matching what a real dispatch tier samples cheaply.
type ClusterLoad struct {
	Busy   int
	Queued int
}

// Balancer picks the destination cluster for one arriving request.
//
// Contract: Pick must be a pure function of (loads, its own private
// state, draws from r) — never of wall time, map order, or anything
// goroutine-dependent — and must return an index in [0, len(loads)).
// Ties break toward the lowest index so results are reproducible.
// A Balancer instance may carry private state (round-robin's cursor) and
// therefore must not be shared between Sims.
type Balancer interface {
	Name() string
	Pick(loads []ClusterLoad, r *rng.Stream) int
}

// LoadOblivious is the optional capability of a Balancer whose Pick never
// reads the contents of the loads slice — only its length. The Sim probes
// it once at construction: for an oblivious balancer (random,
// round-robin) the per-arrival snapshot of every cluster's load into the
// slice is elided, removing O(clusters) work from the hottest event. The
// slice passed to Pick then carries stale values, which is safe exactly
// because the balancer declared it never looks at them; load-aware
// balancers (least-loaded, JSQ) do not implement the interface and keep
// the fresh snapshot bit-identically.
type LoadOblivious interface {
	// NeedsLoads reports whether Pick reads the loads slice's elements.
	NeedsLoads() bool
}

// needsLoads reports whether b requires a fresh loads snapshot at every
// Pick. Balancers default to needing it; only an explicit LoadOblivious
// opt-out elides the per-arrival fill.
func needsLoads(b Balancer) bool {
	if lo, ok := b.(LoadOblivious); ok {
		return lo.NeedsLoads()
	}
	return true
}

// NewRandom returns the uniform random balancer: the no-information
// baseline every smarter policy is judged against.
func NewRandom() Balancer { return randomLB{} }

type randomLB struct{}

func (randomLB) Name() string { return "random" }
func (randomLB) Pick(loads []ClusterLoad, r *rng.Stream) int {
	return r.Intn(len(loads))
}

// NeedsLoads implements LoadOblivious: Pick draws uniformly over the
// slice length and never reads an element.
func (randomLB) NeedsLoads() bool { return false }

// NewRoundRobin returns the cyclic balancer.
func NewRoundRobin() Balancer { return &roundRobinLB{} }

type roundRobinLB struct {
	next int
}

func (*roundRobinLB) Name() string { return "round-robin" }
func (b *roundRobinLB) Pick(loads []ClusterLoad, r *rng.Stream) int {
	i := b.next % len(loads)
	b.next = i + 1
	return i
}

// NeedsLoads implements LoadOblivious: the cursor only wraps on the
// slice length, elements are never read.
func (*roundRobinLB) NeedsLoads() bool { return false }

// NewLeastLoaded returns the balancer that picks the cluster with the
// fewest requests in the system (serving + waiting), ties to the lowest
// index.
func NewLeastLoaded() Balancer { return leastLoadedLB{} }

type leastLoadedLB struct{}

func (leastLoadedLB) Name() string { return "least-loaded" }
func (leastLoadedLB) Pick(loads []ClusterLoad, r *rng.Stream) int {
	best, bestN := 0, loads[0].Busy+loads[0].Queued
	for i := 1; i < len(loads); i++ {
		if n := loads[i].Busy + loads[i].Queued; n < bestN {
			best, bestN = i, n
		}
	}
	return best
}

// NewJSQ returns the join-shortest-queue balancer: fewest WAITING
// requests, ties to the lowest index. Unlike least-loaded it ignores the
// in-service count, so it keeps spreading work while cores are merely
// busy and only reacts to actual backlog.
func NewJSQ() Balancer { return jsqLB{} }

type jsqLB struct{}

func (jsqLB) Name() string { return "join-shortest-queue" }
func (jsqLB) Pick(loads []ClusterLoad, r *rng.Stream) int {
	best, bestN := 0, loads[0].Queued
	for i := 1; i < len(loads); i++ {
		if loads[i].Queued < bestN {
			best, bestN = i, loads[i].Queued
		}
	}
	return best
}
