package assign

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/shard"
	"fairassign/internal/skyline"
)

// Typed misuse errors. All Workspace methods return wrapped forms of
// these sentinels (match with errors.Is), so callers can distinguish
// programming mistakes from environmental failures.
var (
	// ErrClosed is returned by every Workspace method after Close.
	ErrClosed = errors.New("assign: workspace is closed")
	// ErrViewClosed is returned by View query methods after View.Close.
	ErrViewClosed = errors.New("assign: view is closed")
	// ErrDuplicateID is returned by AddObject/AddFunction when the ID is
	// already live on that side.
	ErrDuplicateID = errors.New("assign: duplicate id")
	// ErrUnknownID is returned by RemoveObject/RemoveFunction when no
	// live entity has the ID.
	ErrUnknownID = errors.New("assign: unknown id")
	// ErrDurabilityUnsupported is returned when a workspace of more than
	// one shard is asked for a WAL or snapshot directory: the log and
	// snapshot format hold one object index.
	ErrDurabilityUnsupported = errors.New("assign: durable sharded workspaces are not supported")
)

// ShardOptions lays out a workspace's object space.
type ShardOptions struct {
	// Shards is the number of object shards (<= 0 means 1).
	Shards int
	// Partition selects the object->shard mapping (default
	// shard.PartitionAuto: spatial with hash fallback).
	Partition shard.PartitionKind
	// SearchWorkers bounds the per-shard fan-out of repair's frontier
	// scans and displacement searches, and of commit-time flushes:
	// <= 0 uses min(Shards, GOMAXPROCS); 1 runs them sequentially. The
	// matching is identical at every setting.
	SearchWorkers int
}

// Workspace is the long-lived incremental form of the solver: it builds
// the shared solve state once, computes the initial stable matching with
// SB, and then repairs the matching in place as preference functions and
// objects arrive or depart — the dynamic regime the paper sketches as
// future work in Section 8.
//
// Repair works through two bounded chain primitives, mirroring the
// paper's Chain algorithm and its Property 2 (a mutual best pair is
// stable):
//
//   - a freed function unit proposes down its preference order: it takes
//     the best object that either has spare capacity or holds a strictly
//     worse assignment, displacing that assignment and re-chaining the
//     displaced function;
//   - a freed object unit pulls the best function that strictly prefers
//     it over its current worst assignment (or has spare capacity), and
//     the vacancy the mover leaves behind cascades.
//
// Because both sides rank every pair by the same score f(o), the stable
// matching is unique (up to score ties), so chain repair lands on
// exactly the matching a from-scratch solve of the mutated snapshot
// produces — the conformance mutation harness asserts this after every
// mutation of randomized scripts.
//
// Exact score ties (bit-equal f(o) for different pairs — measure zero
// for continuous data, but reachable through duplicate or diagonal
// points) are resolved by the definitional greedy order: lower function
// ID, then lower object ID. A one-shot SB solve resolves such ties by
// TA scan order instead, so on tied instances the two can return
// different — equally stable — resolutions of the tie.
//
// The object space is split across N >= 1 shards (shard.Partitioner),
// each with its own versioned page store, R-tree, availability frontier
// and epoch stream; the function side is global, because function
// capacity is shared state every chain can consume. The availability
// frontier — per shard, the skyline of objects with remaining capacity —
// is maintained incrementally through the Section 5.2 machinery
// (Maintainer.Insert for arrivals and revived capacity,
// Maintainer.Discard for exhaustion and departures). A function
// proposal runs a bounded cross-shard displacement protocol (repair.go):
// the best frontier object over all shards is the ceiling of a
// displacement search each shard runs over its own tree, and the
// per-shard winners combine by (score desc, ID asc) — the order BRS
// enumerates inside one tree — so the matching is byte-identical at
// every mutation boundary for any shard count (internal/conformance
// asserts counts {1,2,4,7}). (The one theoretical exception: a
// non-strictly-monotone scorer can tie a dominated point with its
// dominator; if a shard boundary separates them, the per-shard frontiers
// may surface the dominated lower-ID point a single skyline pruned. Both
// resolutions are stable.)
//
// What shards buy on the serving path: flushes, publishes and snapshot
// captures are per shard and dirty-shard-only, so a mutation touching
// one shard republishes and re-captures 1/N of the object state; on
// multi-core hosts the per-shard probes of each repair step fan out
// across ShardOptions.SearchWorkers. Durability (durable.go) is
// supported at one shard.
type Workspace struct {
	// mu is the single-writer lock: it serializes mutations, commits,
	// and snapshot capture. Snapshot readers never take it — a View
	// answers from immutable published state — so reads proceed
	// concurrently with (and unblocked by) repairs.
	mu sync.Mutex

	cfg  Config
	dims int
	part *shard.Partitioner

	shards   []*core
	objShard map[uint64]int // object ID -> owning shard

	// Global function side: the weight R-tree over effective weight
	// vectors (linear families; reverse searches run against it), the
	// columnar blocks (non-linear families, scanned with the batched
	// dual kernel), capacities, and the function half of the matching.
	// fstore is versioned like the shard stores: views never traverse
	// it, so every write recycles in place, and durable snapshot capture
	// images it from the in-memory version chains.
	fstore    *pagestore.VersionedStore
	fpool     *pagestore.BufferPool
	ftree     *rtree.Tree
	funcs     map[uint64]Function
	eff       map[uint64][]float64
	nonlin    *score.FuncBlocks
	funcCaps  *capTable
	byFunc    map[uint64][]pair
	funcDirty bool
	funcsSnap []Function // immutable capture, rebuilt when funcDirty

	queue   []repairItem // free units awaiting chain repair
	workers int
	// Per-shard candidate scratch for bestEntry (guarded by mu).
	frontier, cands []shardCand

	seq  uint64 // global commit sequence number: the epoch views pin
	pub  *pubState
	pubA atomic.Pointer[pubState]

	// dur is the durability state (nil without a WALDir): the log every
	// Apply batch is fsynced to before its epoch publishes, plus the
	// snapshot directory. recovery describes how an OpenWorkspace
	// workspace was reconstructed.
	dur      *durableState
	recovery *RecoveryInfo

	closed    bool        // guarded by mu
	closedA   atomic.Bool // mirrors closed for the lock-free Snapshot fast path
	corrupt   error       // non-nil after a mid-mutation structural failure (see ErrCorrupt)
	mutations int64
	commits   int64 // epochs published (group commits batch many mutations into one)
	chainLen  int64 // reassignments performed by repair chains
	searches  int64 // top-1 probes issued by repair
	resolves  int64 // full solves (the initial build)
}

// pair is one assigned unit of the matching, present in exactly one
// slice of the owning shard's byObj and of the workspace's byFunc.
type pair struct {
	fid   uint64
	oid   uint64
	score float64
}

// repairItem is a freed unit: a function unit looking for an object, or
// an object unit looking for a function.
type repairItem struct {
	isFunc bool
	id     uint64
}

// core is one shard: a self-contained slice of the object space with
// its own versioned page store, R-tree, availability frontier, and
// epoch stream.
type core struct {
	store *pagestore.VersionedStore
	pool  *pagestore.BufferPool
	tree  *rtree.Tree

	// avail is this shard's availability frontier: a materialized
	// skyline maintainer over the shard's objects with remaining
	// capacity. It holds no R-tree references (the trees are mutated
	// physically), so arbitrary Insert/Discard traffic stays correct.
	avail *skyline.Maintainer

	objs  map[uint64]Object
	caps  *capTable
	byObj map[uint64][]pair
	units int // assigned units held by the shard's objects

	epoch uint64 // latest published page-store epoch

	// pageDirty marks tree pages mutated since the last publish (object
	// arrivals/departures); stateDirty marks any capture-visible change
	// (tree, objects, or frontier) since the last commit. Repair moves
	// that only shuffle assignments set neither — cross-shard churn
	// republishes nothing on untouched shards.
	pageDirty  bool
	stateDirty bool

	// pub caches the capture of the latest published epoch. A commit
	// drops it when the shard's state changed, so a shard untouched
	// since its last capture joins a snapshot for a refcount increment
	// instead of an O(objects) copy, and a changed one pins no stale
	// history.
	pub *shardPub
}

// ShardStats is one shard's slice of WorkspaceStats.
type ShardStats struct {
	Objects       int
	AssignedUnits int
	Frontier      int
	Epoch         uint64 // the shard's own page-store epoch
}

// WorkspaceStats is a point-in-time summary of a workspace. Objects,
// Functions, and AssignedUnits are partition-invariant; SkylineSize and
// the work counters depend on the partition — per-shard skylines union
// to more points than one global skyline, and every proposal issues one
// probe per shard.
type WorkspaceStats struct {
	Shards        int
	Objects       int   // live objects
	Functions     int   // live functions
	AssignedUnits int   // pairs in the current matching
	SkylineSize   int   // availability frontier, summed over shards
	Mutations     int64 // mutations applied since construction
	Commits       int64 // epochs published (Apply groups many mutations into one)
	Seq           uint64
	ChainSteps    int64 // reassignments performed by repair chains
	Searches      int64 // top-1 probes issued by repair
	Resolves      int64 // from-scratch solves (1: the initial build)
	IO            metrics.IOCounter
	PerShard      []ShardStats
}

// versioned returns the config with every store it builds wrapped in a
// VersionedStore. The writer lock serializes Acquire with mutations, so
// the stores may recycle page versions in place whenever no live view
// observes them — churn without open views then retains no history.
func (c Config) versioned() Config {
	vc := c
	vc.StoreFactory = func(int) (pagestore.Store, error) {
		inner, err := c.newStore()
		if err != nil {
			return nil, err
		}
		vs := pagestore.NewVersioned(inner)
		vs.SetSerializedAcquire(true)
		return vs, nil
	}
	return vc
}

// NewWorkspace builds a one-shard workspace.
func NewWorkspace(p *Problem, cfg Config) (*Workspace, error) {
	return NewShardedWorkspace(p, cfg, ShardOptions{})
}

// NewShardedWorkspace validates the problem, computes the initial stable
// matching with one SB solve, partitions the object space, and indexes
// each shard. At one shard the solve's own object index becomes the
// shard's; at more, each shard bulk-loads its slice. Durability
// (cfg.WALDir / cfg.Durable) is set up at one shard and rejected with
// ErrDurabilityUnsupported at more.
func NewShardedWorkspace(p *Problem, cfg Config, opt ShardOptions) (*Workspace, error) {
	n := max(opt.Shards, 1)
	if n > 1 && (cfg.Durable || cfg.WALDir != "") {
		return nil, ErrDurabilityUnsupported
	}
	vcfg := cfg.versioned()
	st, err := newSolveState(p, vcfg)
	if err != nil {
		return nil, err
	}
	res, err := st.runSB(modeOptimized)
	if err != nil {
		st.release()
		return nil, err
	}
	if n > 1 {
		st.release() // each shard bulk-loads its own slice below
	}
	w := newWorkspace(cfg, p.Dims, p.Objects, len(p.Functions), opt)
	w.resolves = 1
	grouped := make([][]Object, n)
	for _, o := range p.Objects {
		s := w.part.Route(o.Point, o.ID)
		grouped[s] = append(grouped[s], Object{ID: o.ID, Point: o.Point.Clone(), Capacity: o.Capacity})
		w.objShard[o.ID] = s
	}
	for _, objs := range grouped {
		store, pool, tree := st.store, st.pool, st.tree // one shard: the solve's index
		if n > 1 {
			if store, pool, tree, err = buildObjectIndex(vcfg, p.Dims, objs); err != nil {
				w.Close()
				return nil, err
			}
		}
		sh := w.addCore(store.(*pagestore.VersionedStore), pool, tree, len(objs))
		for _, o := range objs {
			sh.objs[o.ID] = o
			sh.caps.add(o.ID, o.capacity())
		}
	}

	if err := w.buildFunctions(vcfg, p.Functions); err != nil {
		w.Close()
		return nil, err
	}
	for _, pr := range res.Pairs {
		w.link(pair{fid: pr.FuncID, oid: pr.ObjectID, score: pr.Score})
		w.shards[w.objShard[pr.ObjectID]].caps.consume(pr.ObjectID)
		w.funcCaps.consume(pr.FuncID)
	}
	w.initFrontiers()
	// Publish the initial epoch so snapshots taken before any mutation
	// have a sealed page state to pin.
	if err := w.commitLocked(); err != nil {
		w.Close()
		return nil, err
	}
	if cfg.WALDir != "" || cfg.Durable {
		if err := w.initDurable(); err != nil {
			w.Close()
			return nil, err
		}
	}
	return w, nil
}

// newWorkspace allocates an empty workspace over the given initial
// objects — they fix the partition; constructors fill the shards and
// the function side.
func newWorkspace(cfg Config, dims int, objs []Object, functions int, opt ShardOptions) *Workspace {
	n := max(opt.Shards, 1)
	workers := opt.SearchWorkers
	if workers <= 0 {
		workers = min(n, runtime.GOMAXPROCS(0))
	}
	var keys []shard.Key
	if n > 1 {
		keys = make([]shard.Key, len(objs))
		for i, o := range objs {
			keys[i] = shard.Key{Point: o.Point, ID: o.ID}
		}
	}
	return &Workspace{
		cfg:       cfg,
		dims:      dims,
		part:      shard.NewPartitioner(dims, n, keys, opt.Partition),
		objShard:  make(map[uint64]int, len(objs)),
		funcs:     make(map[uint64]Function, functions),
		eff:       make(map[uint64][]float64, functions),
		nonlin:    score.NewFuncBlocks(dims),
		funcCaps:  &capTable{remaining: make(map[uint64]int, functions)},
		byFunc:    make(map[uint64][]pair),
		funcDirty: true,
		workers:   workers,
		frontier:  make([]shardCand, n),
		cands:     make([]shardCand, n),
	}
}

// addCore appends a shard over an already-built index.
func (w *Workspace) addCore(store *pagestore.VersionedStore, pool *pagestore.BufferPool, tree *rtree.Tree, objects int) *core {
	sh := &core{
		store: store,
		pool:  pool,
		tree:  tree,
		objs:  make(map[uint64]Object, objects),
		caps:  &capTable{remaining: make(map[uint64]int, objects)},
		byObj: make(map[uint64][]pair),
	}
	w.shards = append(w.shards, sh)
	return sh
}

// buildFunctions registers the initial functions and bulk-loads the
// weight tree over the linear ones.
func (w *Workspace) buildFunctions(vcfg Config, funcs []Function) error {
	store, err := vcfg.newStore()
	if err != nil {
		return err
	}
	w.fstore = store.(*pagestore.VersionedStore)
	w.fpool = vcfg.newBuildPool(w.fstore)
	fitems := make([]rtree.Item, 0, len(funcs))
	for _, f := range funcs {
		ew := w.addFunction(f)
		if f.Fam.IsLinear() {
			fitems = append(fitems, rtree.Item{ID: f.ID, Point: ew})
		}
	}
	w.ftree, err = rtree.BulkLoadWorkers(w.fpool, w.dims, fitems, vcfg.treeFill(), vcfg.buildWorkers())
	return err
}

// addFunction registers a function's tables (weights copied) and, for a
// non-linear family, its columnar block entry; it returns the effective
// weights. The caller indexes linear functions in the weight tree.
func (w *Workspace) addFunction(f Function) []float64 {
	weights := make([]float64, len(f.Weights))
	copy(weights, f.Weights)
	f.Weights = weights
	ew := f.Effective()
	w.funcs[f.ID] = f
	w.eff[f.ID] = ew
	if !f.Fam.IsLinear() {
		w.nonlin.Add(f.ID, f.Fam, ew)
	}
	w.funcCaps.add(f.ID, f.capacity())
	w.funcDirty = true
	return ew
}

// initFrontiers materializes each shard's availability frontier from
// its capacity table and forces the next commit to publish it. The
// solve's own maintainer ends in the same logical state but parks pruned
// subtrees by page reference, which would go stale under the physical
// tree mutations ahead.
func (w *Workspace) initFrontiers() {
	for _, sh := range w.shards {
		sh := sh
		var availItems []rtree.Item
		for id, o := range sh.objs {
			if sh.caps.remaining[id] > 0 {
				availItems = append(availItems, rtree.Item{ID: id, Point: o.Point})
			}
		}
		sh.avail = skyline.NewMaintainerFromItems(w.dims, availItems, nil)
		// Parked entries can go stale (their object departed or
		// exhausted — and its ID may even be reused for a different
		// point); the oracle drops them the moment they resurface, so no
		// tombstones accumulate.
		sh.avail.SetLiveCheck(func(id uint64, pt geom.Point) bool {
			o, ok := sh.objs[id]
			return ok && sh.caps.remaining[id] > 0 && o.Point.Equal(pt)
		})
		sh.pageDirty, sh.stateDirty = true, true
	}
}

// Dims returns the workspace dimensionality.
func (w *Workspace) Dims() int { return w.dims }

// ShardCount returns the number of shards.
func (w *Workspace) ShardCount() int { return len(w.shards) }

// Partition returns the resolved partition strategy.
func (w *Workspace) Partition() shard.PartitionKind { return w.part.Kind() }

// ShardOfObject returns the shard owning a live object.
func (w *Workspace) ShardOfObject(id uint64) (int, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.objShard[id]
	return s, ok
}

// RouteObject returns the shard a (possibly not yet live) object with
// the given point and ID would land on — the routing key producers use
// to pick a per-shard queue.
func (w *Workspace) RouteObject(pt geom.Point, id uint64) int {
	return w.part.Route(pt, id)
}

// Close releases every page store. The workspace must not be used
// afterwards.
func (w *Workspace) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.closedA.Store(true)
	w.dropPubLocked()
	for _, sh := range w.shards {
		if sh.pub != nil {
			sh.pub.release()
			sh.pub = nil
		}
		sh.store.Close()
	}
	if w.fstore != nil {
		w.fstore.Close()
	}
	if w.dur != nil && w.dur.log != nil {
		w.dur.log.Close()
	}
}

// liveLocked guards against use after Close and after a corrupting
// mid-mutation failure. Caller holds w.mu.
func (w *Workspace) liveLocked() error {
	if w.closed {
		return ErrClosed
	}
	if w.corrupt != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, w.corrupt)
	}
	return nil
}

// commitLocked seals the round: every page-dirty shard flushes its pool
// and publishes a new store epoch (fanned out across workers), the
// global sequence number advances, and the cached published states are
// dropped (open views keep theirs alive) — after which every page
// version the round retired and no view still pins is reclaimed. Clean
// shards publish nothing, and their cached captures stay valid. Caller
// holds w.mu (or is constructing the workspace).
func (w *Workspace) commitLocked() error {
	w.dropPubLocked()
	err := w.runShards(func(_ int, sh *core) error {
		if sh.stateDirty {
			if sh.pub != nil {
				sh.pub.release()
				sh.pub = nil
			}
			sh.stateDirty = false
		}
		if !sh.pageDirty {
			return nil
		}
		if err := sh.pool.Flush(); err != nil {
			return err
		}
		sh.epoch = sh.store.Publish()
		sh.pageDirty = false
		return nil
	})
	if err != nil {
		return err
	}
	w.seq++
	w.commits++
	return nil
}

// dropPubLocked invalidates the cached published state: the fast-path
// pointer is cleared first, so no new reader can retain it after the
// workspace reference is released.
func (w *Workspace) dropPubLocked() {
	if w.pub != nil {
		w.pubA.Store(nil)
		w.pub.release()
		w.pub = nil
	}
}

// runShards invokes fn once per shard, fanning out across
// ShardOptions.SearchWorkers goroutines. fn must confine its writes to
// its own shard (the caller holds w.mu, so global state is stable to
// read). Every shard runs even when one fails, and the error of the
// lowest-numbered failing shard is returned — the same error at every
// worker setting.
func (w *Workspace) runShards(fn func(i int, sh *core) error) error {
	if w.workers <= 1 || len(w.shards) == 1 {
		var first error
		for i, sh := range w.shards {
			if err := fn(i, sh); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, w.workers)
	errs := make([]error, len(w.shards))
	for i, sh := range w.shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, sh *core) {
			defer wg.Done()
			errs[i] = fn(i, sh)
			<-sem
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// link records one assigned unit on both sides.
func (w *Workspace) link(p pair) {
	sh := w.shards[w.objShard[p.oid]]
	sh.units++
	sh.byObj[p.oid] = append(sh.byObj[p.oid], p)
	w.byFunc[p.fid] = append(w.byFunc[p.fid], p)
}

// unlink removes one instance of the pair from both sides.
func (w *Workspace) unlink(p pair) {
	sh := w.shards[w.objShard[p.oid]]
	sh.units--
	sh.byObj[p.oid] = cutPair(sh.byObj[p.oid], p)
	w.byFunc[p.fid] = cutPair(w.byFunc[p.fid], p)
}

func cutPair(ps []pair, p pair) []pair {
	for i := range ps {
		if ps[i] == p {
			ps[i] = ps[len(ps)-1]
			return ps[:len(ps)-1]
		}
	}
	panic("assign: workspace pair index out of sync")
}

// scorerOf returns a live function's effective scorer: its scoring
// family over the γ-folded weights. Struct-by-value over existing
// slices — no allocation on the repair hot paths.
func (w *Workspace) scorerOf(fid uint64) score.Scorer {
	return score.Scorer{Fam: w.funcs[fid].Fam, W: w.eff[fid]}
}

// sortPairsDefinitional orders pairs in the definitional greedy order:
// descending score, ties by ascending function then object ID.
func sortPairsDefinitional(out []Pair) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.FuncID != b.FuncID {
			return a.FuncID < b.FuncID
		}
		return a.ObjectID < b.ObjectID
	})
}

// pairsLocked flattens the matching into a fresh unordered slice.
// Caller holds w.mu.
func (w *Workspace) pairsLocked() []Pair {
	out := make([]Pair, 0, len(w.byFunc))
	for _, ps := range w.byFunc {
		for _, p := range ps {
			out = append(out, Pair{FuncID: p.fid, ObjectID: p.oid, Score: p.score})
		}
	}
	return out
}

// Pairs returns the current matching in the definitional greedy order:
// descending score, ties by ascending function then object ID.
func (w *Workspace) Pairs() []Pair {
	w.mu.Lock()
	out := w.pairsLocked()
	w.mu.Unlock()
	sortPairsDefinitional(out)
	return out
}

// PairsOf returns the current assignments of one function (unordered).
func (w *Workspace) PairsOf(fid uint64) []Pair {
	w.mu.Lock()
	defer w.mu.Unlock()
	ps := w.byFunc[fid]
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{FuncID: p.fid, ObjectID: p.oid, Score: p.score}
	}
	return out
}

// ObjectPoint returns a live object's feature vector.
func (w *Workspace) ObjectPoint(id uint64) (geom.Point, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.objShard[id]
	if !ok {
		return nil, false
	}
	return w.shards[s].objs[id].Point, true
}

// ProblemSnapshot materializes the current instance as a Problem
// (entities sorted by ID), for differential validation against one-shot
// solvers. (Read views over the live workspace are taken with Snapshot
// instead.)
func (w *Workspace) ProblemSnapshot() *Problem {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.problemLocked()
}

func (w *Workspace) problemLocked() *Problem {
	p := &Problem{Dims: w.dims}
	for _, sh := range w.shards {
		for _, o := range sh.objs {
			p.Objects = append(p.Objects, Object{ID: o.ID, Point: o.Point.Clone(), Capacity: o.Capacity})
		}
	}
	sortObjectsByID(p.Objects)
	for _, f := range w.funcs {
		weights := make([]float64, len(f.Weights))
		copy(weights, f.Weights)
		p.Functions = append(p.Functions, Function{ID: f.ID, Weights: weights, Gamma: f.Gamma, Capacity: f.Capacity, Fam: f.Fam})
	}
	sortFunctionsByID(p.Functions)
	return p
}

func sortObjectsByID(objs []Object) {
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
}

func sortFunctionsByID(funcs []Function) {
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].ID < funcs[j].ID })
}

// VerifyStable checks that the current matching is stable for the
// current population, atomically with respect to concurrent mutations.
// On a corrupt workspace it fails fast with ErrCorrupt — the in-memory
// matching is not trustworthy after a mid-mutation failure.
func (w *Workspace) VerifyStable() error {
	w.mu.Lock()
	if w.corrupt != nil {
		err := fmt.Errorf("%w: %w", ErrCorrupt, w.corrupt)
		w.mu.Unlock()
		return err
	}
	p := w.problemLocked()
	pairs := w.pairsLocked()
	w.mu.Unlock()
	// IsStable is O(|F|·|O|); run it on the copies, outside the lock.
	return IsStable(p, pairs)
}

// Stats summarizes the workspace.
func (w *Workspace) Stats() WorkspaceStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.statsLocked()
}

func (w *Workspace) statsLocked() WorkspaceStats {
	s := WorkspaceStats{
		Shards:     len(w.shards),
		Functions:  len(w.funcs),
		Mutations:  w.mutations,
		Commits:    w.commits,
		Seq:        w.seq,
		ChainSteps: w.chainLen,
		Searches:   w.searches,
		Resolves:   w.resolves,
		PerShard:   make([]ShardStats, len(w.shards)),
	}
	for i, sh := range w.shards {
		s.PerShard[i] = ShardStats{
			Objects:       len(sh.objs),
			AssignedUnits: sh.units,
			Frontier:      sh.avail.Size(),
			Epoch:         sh.epoch,
		}
		s.Objects += len(sh.objs)
		s.AssignedUnits += sh.units
		s.SkylineSize += sh.avail.Size()
	}
	if !w.closed {
		for _, sh := range w.shards {
			s.IO.Add(sh.store.IO().Snapshot())
		}
		s.IO.Add(w.fstore.IO().Snapshot())
	}
	return s
}
