package serve

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"repro"
)

// ErrGraphUnavailable marks a graph request the generator cannot satisfy
// — for "gnp-connected", no connected sample within the attempt budget at
// the requested (n, d). The server maps it to 422: the request is
// well-formed but the instance does not exist.
var ErrGraphUnavailable = errors.New("serve: graph unavailable")

// GraphKey identifies one deterministic graph instance. Two requests with
// equal keys always denote the identical graph (generators are pure
// functions of the key), which is what makes caching sound.
type GraphKey struct {
	Generator string // "gnp" | "gnp-connected"
	N         int
	D         float64
	Seed      uint64
}

// GraphCache is a size-bounded LRU of generated graphs with singleflight
// deduplication: concurrent Get calls for the same key build the graph
// once and share the result. A cached graph is generated into fresh
// storage and never modified afterwards (engines keep their own mutable
// state), so a cached *Graph is safe to share across concurrent
// simulations. A graph drawn into reused storage (gen.Scratch) is
// rewritten by the next draw and must never enter the cache.
type GraphCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[GraphKey]*list.Element
	order    *list.List // front = most recently used
	inflight map[GraphKey]*buildCall

	// onEvict, when set, is called (outside the lock) with each graph
	// dropped from the LRU — the server points it at the execution
	// layer's Forget so pooled engines don't outlive their graph.
	onEvict func(*repro.Graph)

	hits, misses, coalesced, evictions int64
}

type cacheEntry struct {
	key GraphKey
	g   *repro.Graph
}

// buildCall is one in-flight graph build; done is closed when g/err are
// set.
type buildCall struct {
	done chan struct{}
	g    *repro.Graph
	err  error
}

// NewGraphCache returns a cache holding at most capacity graphs
// (capacity < 1 is treated as 1).
func NewGraphCache(capacity int) *GraphCache {
	if capacity < 1 {
		capacity = 1
	}
	return &GraphCache{
		capacity: capacity,
		entries:  make(map[GraphKey]*list.Element),
		order:    list.New(),
		inflight: make(map[GraphKey]*buildCall),
	}
}

// Get returns the graph for key, building it on a miss. Concurrent
// misses on the same key coalesce into one build: every caller blocks on
// the same buildCall and shares its result. Failed builds are not cached
// — a later Get retries.
func (c *GraphCache) Get(key GraphKey) (*repro.Graph, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*cacheEntry).g, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		<-call.done
		return call.g, call.err
	}
	call := &buildCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.misses++
	c.mu.Unlock()

	call.g, call.err = buildGraph(key)

	var evicted []*repro.Graph
	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, g: call.g})
		for c.order.Len() > c.capacity {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			ent := oldest.Value.(*cacheEntry)
			delete(c.entries, ent.key)
			c.evictions++
			evicted = append(evicted, ent.g)
		}
	}
	c.mu.Unlock()
	close(call.done)
	if c.onEvict != nil {
		for _, g := range evicted {
			c.onEvict(g)
		}
	}
	return call.g, call.err
}

// Stats returns a consistent snapshot of the cache counters and size.
func (c *GraphCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:      c.order.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
	}
}

// CacheStats is the /metrics view of a GraphCache. Engine reuse is the
// execution layer's job, so its pool counters live in Metrics.Exec
// (exec.Stats), not here.
type CacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
}

// buildGraph deterministically generates the graph a key denotes.
func buildGraph(key GraphKey) (*repro.Graph, error) {
	rng := repro.NewRand(key.Seed)
	switch key.Generator {
	case "gnp":
		return repro.GnpDegree(key.N, key.D, rng), nil
	case "gnp-connected":
		g, ok := repro.ConnectedGnpDegree(key.N, key.D, rng)
		if !ok {
			return nil, fmt.Errorf("%w: no connected G(n=%d, d=%g) sample; raise d", ErrGraphUnavailable, key.N, key.D)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("%w: unknown generator %q", ErrGraphUnavailable, key.Generator)
	}
}
