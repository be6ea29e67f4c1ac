package assign

import (
	"math"
	"sync"
	"sync/atomic"

	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/skyline"
	"fairassign/internal/topk"
)

// shardPub is one shard's capture at its latest published epoch: a
// pinned page snapshot plus flat copies of the capture-visible logical
// state (per-entity points alias the immutable originals). It is
// refcounted twice over — once by the shard (which caches it until the
// shard next changes) and once per pubState composing it — so a clean
// shard contributes to any number of snapshots for the cost of a
// refcount increment.
type shardPub struct {
	refs atomic.Int64

	epoch uint64
	snap  *pagestore.Snapshot
	meta  rtree.Meta
	avail []rtree.Item
	objs  []Object
}

func (p *shardPub) retain() { p.refs.Add(1) }

func (p *shardPub) release() {
	if p.refs.Add(-1) == 0 {
		p.snap.Release()
	}
}

// pubState is one published epoch of a Workspace: the per-shard
// captures current at one global sequence number, pinned together
// atomically under the writer lock, plus the function table and the
// matching. It is shared — refcounted — between the workspace (which
// caches the state of its latest epoch until the next commit) and every
// View handed out for that epoch. Derived forms — the definitional sort
// order, the per-function index, the object lookup — are materialized
// lazily, once per epoch, on first use.
type pubState struct {
	refs atomic.Int64

	seq   uint64
	dims  int
	stats WorkspaceStats

	shards []*shardPub
	funcs  []Function
	pairs  []Pair // definitional order after sortOnce

	sortOnce sync.Once

	byFunc     map[uint64][]Pair
	byFuncOnce sync.Once

	objs     []Object
	objsOnce sync.Once

	objByID     map[uint64]Object
	objByIDOnce sync.Once
}

func (g *pubState) retain() { g.refs.Add(1) }

// tryRetain takes a reference only if the state is still alive — the
// lock-free Snapshot fast path. Failure means a concurrent release drove
// the count to zero (the state is being destroyed); the caller falls
// back to the locked slow path.
func (g *pubState) tryRetain() bool {
	for {
		r := g.refs.Load()
		if r <= 0 {
			return false
		}
		if g.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

func (g *pubState) release() {
	if g.refs.Add(-1) == 0 {
		for _, sp := range g.shards {
			sp.release()
		}
	}
}

func (g *pubState) sortedPairs() []Pair {
	g.sortOnce.Do(func() { sortPairsDefinitional(g.pairs) })
	return g.pairs
}

func (g *pubState) pairsOf(fid uint64) []Pair {
	g.byFuncOnce.Do(func() {
		idx := make(map[uint64][]Pair)
		for _, pr := range g.sortedPairs() {
			idx[pr.FuncID] = append(idx[pr.FuncID], pr)
		}
		g.byFunc = idx
	})
	return g.byFunc[fid]
}

func (g *pubState) allObjs() []Object {
	g.objsOnce.Do(func() {
		n := 0
		for _, sp := range g.shards {
			n += len(sp.objs)
		}
		objs := make([]Object, 0, n)
		for _, sp := range g.shards {
			objs = append(objs, sp.objs...)
		}
		sortObjectsByID(objs)
		g.objs = objs
	})
	return g.objs
}

func (g *pubState) object(id uint64) (Object, bool) {
	g.objByIDOnce.Do(func() {
		n := 0
		for _, sp := range g.shards {
			n += len(sp.objs)
		}
		idx := make(map[uint64]Object, n)
		for _, sp := range g.shards {
			for _, o := range sp.objs {
				idx[o.ID] = o
			}
		}
		g.objByID = idx
	})
	o, ok := g.objByID[id]
	return o, ok
}

// Snapshot returns a read view pinned to the latest published epoch.
// The view is immune to later mutations, safe for concurrent use, and
// must be Closed to let the epoch's retired page versions be reclaimed.
// The capture is performed at most once per epoch — concurrent
// snapshots between two commits share one immutable state — and the
// shared case is lock-free: only the first snapshot after a commit
// (which performs the capture) synchronizes with the writer.
func (w *Workspace) Snapshot() (*View, error) {
	// Fast path: a published state is cached and alive; retain it
	// without touching the writer lock. (During an in-flight mutation
	// this hands out the previous epoch — exactly the latest published
	// state.) The closed re-check after the retain closes the window
	// where a racing Close — whose cache invalidation cannot revoke a
	// pointer already loaded — would otherwise let a post-Close call
	// succeed while other views keep the state alive.
	if g := w.pubA.Load(); g != nil && g.tryRetain() {
		if w.closedA.Load() {
			g.release()
			return nil, ErrClosed
		}
		return &View{pub: g}, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.liveLocked(); err != nil {
		return nil, err
	}
	if w.pub == nil {
		w.pub = w.captureLocked()
		w.pubA.Store(w.pub)
	}
	w.pub.retain()
	return &View{pub: w.pub}, nil
}

// captureLocked composes the capture of the current sequence number:
// every shard whose state changed is re-captured (pinning its latest
// epoch and copying its object table), every clean shard's cached
// capture is retained as-is — after a mutation touching one shard, the next
// snapshot copies 1/N of the object space instead of all of it. Caller
// holds w.mu.
func (w *Workspace) captureLocked() *pubState {
	g := &pubState{seq: w.seq, dims: w.dims, stats: w.statsLocked()}
	g.refs.Store(1) // the workspace's own cache reference
	g.shards = make([]*shardPub, len(w.shards))
	for i, sh := range w.shards {
		if sh.pub == nil {
			sh.pub = sh.capture()
		}
		sh.pub.retain()
		g.shards[i] = sh.pub
	}
	if w.funcDirty {
		snap := make([]Function, 0, len(w.funcs))
		for _, f := range w.funcs {
			snap = append(snap, f)
		}
		sortFunctionsByID(snap)
		w.funcsSnap = snap
		w.funcDirty = false
	}
	g.funcs = w.funcsSnap
	g.pairs = w.pairsLocked()
	return g
}

// capture freezes the shard's capture-visible state: a pinned page
// snapshot, the tree metadata, and flat copies of the object table and
// availability frontier.
func (sh *core) capture() *shardPub {
	p := &shardPub{
		epoch: sh.epoch,
		snap:  sh.store.Acquire(),
		meta:  sh.tree.Meta(),
		avail: sh.avail.Skyline(),
	}
	p.refs.Store(1)
	p.objs = make([]Object, 0, len(sh.objs))
	for _, o := range sh.objs {
		p.objs = append(p.objs, o)
	}
	return p
}

// View is a snapshot-isolated read handle on a Workspace: every method
// answers from the epoch the view pinned when Workspace.Snapshot was
// called — one pinned page snapshot per shard, acquired atomically
// under a single global sequence number, plus the frozen matching and
// function table — no matter how many mutations the workspace absorbs
// afterwards. Logical reads (Pairs, Stats, Problem) are served from the
// captured state; ranked queries merge the per-shard frozen indexes
// lazily by score ceiling. A View is safe for concurrent use by
// multiple goroutines, never touches the writer's buffer pool or I/O
// counters, stays valid after the workspace is closed, and must be
// Closed to release its epoch's page versions for reclamation.
type View struct {
	pub    *pubState
	closed atomic.Bool
}

// Epoch returns the global commit sequence number this view pins: one
// is published at construction and one per Apply batch.
func (v *View) Epoch() uint64 { return v.pub.seq }

// Dims returns the problem dimensionality.
func (v *View) Dims() int { return v.pub.dims }

// Close releases the view's pins. Idempotent. After the last view of an
// epoch closes (and the workspace has moved on), the page versions and
// decoded nodes only that epoch kept alive are reclaimed.
func (v *View) Close() {
	if v.closed.CompareAndSwap(false, true) {
		v.pub.release()
	}
}

// Pairs returns the frozen matching in the definitional greedy order.
// Shared by every caller on this sequence point; treat as immutable.
func (v *View) Pairs() []Pair {
	if v.closed.Load() {
		return nil
	}
	return v.pub.sortedPairs()
}

// PairsOf returns the frozen assignments of one function, best first.
// Shared and immutable, like Pairs.
func (v *View) PairsOf(fid uint64) []Pair {
	if v.closed.Load() {
		return nil
	}
	return v.pub.pairsOf(fid)
}

// Stats returns the workspace summary as of the view's epoch (the zero
// value once the view is closed).
func (v *View) Stats() WorkspaceStats {
	if v.closed.Load() {
		return WorkspaceStats{}
	}
	return v.pub.stats
}

// Object returns a frozen object by ID.
func (v *View) Object(id uint64) (Object, bool) {
	if v.closed.Load() {
		return Object{}, false
	}
	return v.pub.object(id)
}

// Problem materializes the frozen population as a Problem (entities
// sorted by ID). Slices are shared with the view; treat as immutable.
func (v *View) Problem() *Problem {
	if v.closed.Load() {
		return nil
	}
	return &Problem{Dims: v.pub.dims, Objects: v.pub.allObjs(), Functions: v.pub.funcs}
}

// VerifyStable checks that the frozen matching is stable for the
// frozen population — answered entirely from the snapshot.
func (v *View) VerifyStable() error {
	if v.closed.Load() {
		return ErrViewClosed
	}
	return IsStable(v.Problem(), v.Pairs())
}

// shardTree returns one shard's object index frozen at the view's
// epoch.
func (v *View) shardTree(i int) *rtree.View {
	sp := v.pub.shards[i]
	return rtree.NewView(sp.snap, v.pub.dims, sp.meta)
}

// AvailableFrontier returns the union of the frozen per-shard
// availability skylines. With more than one shard it may contain points
// dominated across shard boundaries (each shard maintains its own
// skyline); the set of available objects it covers is the same.
func (v *View) AvailableFrontier() []rtree.Item {
	if v.closed.Load() {
		return nil
	}
	var out []rtree.Item
	for _, sp := range v.pub.shards {
		out = append(out, sp.avail...)
	}
	return out
}

// Skyline computes the global skyline of the frozen object set: BBS
// over each shard's pinned index, then one BNL pass over the
// concatenated per-shard skylines (the skyline of a union is the
// skyline of the unions' skylines).
func (v *View) Skyline() ([]rtree.Item, error) {
	if v.closed.Load() {
		return nil, ErrViewClosed
	}
	var all []rtree.Item
	for i := range v.pub.shards {
		sky, err := skyline.Compute(v.shardTree(i), nil)
		if err != nil {
			return nil, err
		}
		all = append(all, sky...)
	}
	return skyline.BNL(all), nil
}

// TopK runs the merged ranked search for a linear preference function.
func (v *View) TopK(weights []float64, k int) ([]rtree.Item, []float64, error) {
	return v.TopKScorer(score.LinearScorer(weights), k)
}

// TopKScorer answers a global top-k query by lazily merging one BRS
// stream per shard, TA-style: a shard's searcher only advances while
// its score ceiling (the maxscore bound at the head of its frontier
// heap) could still beat the best already-buffered candidate, so cold
// shards stop after their root node and the per-query I/O concentrates
// on the shards that actually hold results. Emission order — score
// descending, ties to the lower ID — is identical to a single-tree BRS
// over the union of the shards.
func (v *View) TopKScorer(sc score.Scorer, k int) ([]rtree.Item, []float64, error) {
	if v.closed.Load() {
		return nil, nil, ErrViewClosed
	}
	type stream struct {
		sr   *topk.Searcher
		it   rtree.Item
		s    float64
		have bool
		done bool
	}
	streams := make([]stream, len(v.pub.shards))
	for i := range v.pub.shards {
		streams[i].sr = topk.NewScorerSearcher(v.shardTree(i), sc, nil)
	}
	var items []rtree.Item
	var scores []float64
	for len(items) < k {
		// Best buffered candidate across streams.
		best := -1
		for i := range streams {
			st := &streams[i]
			if !st.have {
				continue
			}
			if best < 0 || st.s > streams[best].s || (st.s == streams[best].s && st.it.ID < streams[best].it.ID) {
				best = i
			}
		}
		bestScore := math.Inf(-1)
		if best >= 0 {
			bestScore = streams[best].s
		}
		// Advance every unbuffered stream whose ceiling could still
		// matter. >= (not >) keeps equal-score candidates in play so the
		// cross-shard ID tiebreak sees them all before anything emits.
		advanced := false
		for i := range streams {
			st := &streams[i]
			if st.have || st.done {
				continue
			}
			if st.sr.Ceiling() >= bestScore {
				it, s, ok, err := st.sr.Next()
				if err != nil {
					return nil, nil, err
				}
				if ok {
					st.it, st.s, st.have = it, s, true
				} else {
					st.done = true
				}
				advanced = true
			}
		}
		if advanced {
			continue
		}
		if best < 0 {
			break // every shard drained
		}
		items = append(items, streams[best].it)
		scores = append(scores, streams[best].s)
		streams[best].have = false
	}
	return items, scores, nil
}
