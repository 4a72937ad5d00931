package core

import (
	"reflect"
	"sync"
)

// Engine pooling for cross-auction throughput. A one-shot NewEngineSet
// pays the full precomputation allocation — the entry points and the
// qualification order — on every auction. A batch layer solving thousands of
// instances per second would spend most of its cycles re-growing those
// structures, so AcquireEngineSet hands out engines whose backing arenas
// are recycled through shape-keyed sync.Pools: a released arena keeps
// every slice it has grown, and the next acquisition of a similar shape
// rebuilds qualification into that capacity with close to zero fresh
// allocation.
//
// Pools are keyed by the instance's shape class — bid count and horizon
// rounded up to powers of two — so wildly different instance sizes do not
// churn each other's arenas, while instances of one traffic class (the
// common case for a production auction service) share a hot pool.
//
// On top of the shape pools sits cross-auction warm-starting
// (ReacquireEngineSet): when consecutive instances of a batch share one
// *BidSet and an equivalent Config, the rebind skips validation and the
// entire context rebuild — the adjacent instance's qualification order
// and entry points are reused as-is, so re-running a million-bid
// population under the same market rules costs nothing between solves.
// Row populations are compiled at the edge (CompileBids) before they
// reach the pool.

// engineArena bundles a reusable Engine with the auction context it
// wraps; the two are recycled together.
type engineArena struct {
	eng   Engine
	ax    auctionContext
	shape shapeKey
}

// shapeKey is an arena pool key: the power-of-two capacity class of the
// bid population and of the iteration horizon.
type shapeKey struct {
	bids, t int
}

func shapeOf(nBids, T int) shapeKey {
	return shapeKey{bids: ceilPow2(nBids), t: ceilPow2(T)}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// enginePools maps shapeKey -> *sync.Pool of *engineArena.
var enginePools sync.Map

func poolFor(k shapeKey) *sync.Pool {
	if p, ok := enginePools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := enginePools.LoadOrStore(k, &sync.Pool{New: func() any { return &engineArena{shape: k} }})
	return p.(*sync.Pool)
}

// AcquireEngineSet validates the population and returns a pooled Engine
// bound to it. It is semantically identical to NewEngineSet — every
// method of the returned engine yields bit-identical results — but the
// qualification structures are rebuilt into recycled capacity, so
// steady-state batch traffic acquires engines almost allocation-free.
// The caller's BidSet is bound directly (no copy) and retained until the
// next Reacquire or Release. Call Release when the engine (and every
// Result obtained from it) no longer needs the shared qualification
// order; the arena then returns to its pool. The engine must not be used
// after Release (reuse would race with the next acquirer's rebuild).
func AcquireEngineSet(set *BidSet, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateBidSet(set, cfg.T, cfg.K); err != nil {
		return nil, err
	}
	ar := poolFor(shapeOf(set.n, cfg.T)).Get().(*engineArena)
	ar.bindSet(set, cfg)
	return &ar.eng, nil
}

// bindSet rebuilds the context around a caller-owned BidSet.
func (ar *engineArena) bindSet(set *BidSet, cfg Config) {
	ar.ax.rebuild(set, cfg)
	ar.eng = Engine{ax: &ar.ax, arena: ar}
}

// ReacquireEngineSet rebinds a previously acquired engine to a new
// instance. This is the worker-local fast path of the batch layer: a
// worker that keeps its engine across same-class auctions never touches
// the pool between instances, so a GC cycle mid-batch — which is free to
// flush pooled arenas — cannot force it back to full reconstruction.
//
// Its fastest path is the cross-auction warm start: when prev is already
// bound to the same *BidSet under an equivalent Config, the population
// was validated and its context derived on the first acquisition and
// neither depends on anything else, so the rebind returns prev unchanged
// — no validation, no rebuild, every precomputed structure (entry points,
// qualification order) carried over to seed the next
// instance's sweep. Otherwise, when the shape class matches, the context
// is rebuilt into the arena prev already holds. A nil prev, an arena-less
// prev (NewEngine) or a shape mismatch falls back to Release +
// AcquireEngineSet. On a validation error prev is released and the
// returned engine is nil, so the idiomatic
// `eng, err = ReacquireEngineSet(eng, ...)` never leaks an arena. prev
// must not be used after the call (its arena now backs the returned
// engine).
func ReacquireEngineSet(prev *Engine, set *BidSet, cfg Config) (*Engine, error) {
	var ar *engineArena
	if prev != nil {
		ar = prev.arena
	}
	if ar != nil && ar.ax.set == set && cfgEqualForReuse(ar.ax.cfg, cfg) {
		return prev, nil
	}
	if ar == nil || ar.shape != shapeOf(set.n, cfg.T) {
		prev.Release()
		return AcquireEngineSet(set, cfg)
	}
	if err := cfg.Validate(); err != nil {
		prev.Release()
		return nil, err
	}
	if err := ValidateBidSet(set, cfg.T, cfg.K); err != nil {
		prev.Release()
		return nil, err
	}
	ar.bindSet(set, cfg)
	return &ar.eng, nil
}

// cfgEqualForReuse reports whether two configs derive identical auction
// contexts, i.e. whether a warm-started engine may skip its rebuild. All
// scalar fields must match exactly; the LocalIters hooks must both be nil
// or be the same function (compared by code pointer — a conservative
// test: distinct closures over identical behaviour just take the rebuild
// path).
func cfgEqualForReuse(a, b Config) bool {
	if a.T != b.T || a.K != b.K || a.TMax != b.TMax ||
		a.PaymentRule != b.PaymentRule || a.ReservePrice != b.ReservePrice ||
		a.ScheduleRule != b.ScheduleRule || a.ExcludeOwnBids != b.ExcludeOwnBids {
		return false
	}
	if (a.LocalIters == nil) != (b.LocalIters == nil) {
		return false
	}
	return a.LocalIters == nil ||
		reflect.ValueOf(a.LocalIters).Pointer() == reflect.ValueOf(b.LocalIters).Pointer()
}

// Release returns the engine's arena to its shape pool. It is a no-op on
// a nil engine and on engines built by NewEngine or NewEngineSet (only
// pooled engines own an arena). The arena drops its BidSet reference so
// pooled memory never pins caller data; the grown qualification capacity
// is what the pool exists to keep.
func (e *Engine) Release() {
	if e == nil {
		return
	}
	ar := e.arena
	if ar == nil {
		return
	}
	e.arena = nil
	ar.ax.set = nil
	poolFor(ar.shape).Put(ar)
}
