package assign

import (
	"fmt"
	"math"

	"fairassign/internal/geom"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/topk"
)

func (w *Workspace) pushFunc(id uint64) { w.queue = append(w.queue, repairItem{isFunc: true, id: id}) }
func (w *Workspace) pushObj(id uint64)  { w.queue = append(w.queue, repairItem{isFunc: false, id: id}) }

// worstOfObj returns the weakest assignment an object holds — the one a
// stronger proposer displaces. Greedy order: lower score is worse; on a
// tie the higher function ID lost the tiebreak, so it goes first.
func worstOfObj(ps []pair) pair {
	worst := ps[0]
	for _, p := range ps[1:] {
		if p.score < worst.score || (p.score == worst.score && p.fid > worst.fid) {
			worst = p
		}
	}
	return worst
}

// worstOfFunc is the function-side mirror: lower score is worse, ties
// broken toward the higher object ID.
func worstOfFunc(ps []pair) pair {
	worst := ps[0]
	for _, p := range ps[1:] {
		if p.score < worst.score || (p.score == worst.score && p.oid > worst.oid) {
			worst = p
		}
	}
	return worst
}

// restoreUnit gives one unit of capacity back to an object; a revival
// (exhausted -> available) re-enters the availability skyline.
func (sh *core) restoreUnit(oid uint64) {
	if sh.caps.restore(oid) {
		if err := sh.avail.Insert(rtree.Item{ID: oid, Point: sh.objs[oid].Point}); err != nil {
			// Insert only errors on a live duplicate, which the
			// availability bookkeeping rules out.
			panic(fmt.Sprintf("assign: workspace availability out of sync: %v", err))
		}
		sh.stateDirty = true
	}
}

// consumeUnit takes one unit of an object's capacity; exhaustion leaves
// the availability skyline via Discard.
func (sh *core) consumeUnit(oid uint64) error {
	if sh.caps.consume(oid) {
		sh.stateDirty = true
		return sh.avail.Discard(oid)
	}
	return nil
}

// repair drains the free-unit queue. Every step either fills a free
// slot (bounded by total capacity) or replaces an assignment with a
// strictly better one in the greedy order, so the cascade terminates;
// at quiescence no blocking pair remains, and with both sides ranking
// pairs by the same score that stable matching is the greedy one.
// Displaced proposals re-enter the global queue and may land on any
// shard; what stays shard-local is the index work each step does.
func (w *Workspace) repair() error {
	for len(w.queue) > 0 {
		it := w.queue[0]
		w.queue = w.queue[1:]
		var err error
		if it.isFunc {
			err = w.placeFunction(it.id)
		} else {
			err = w.fillObject(it.id)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// placeFunction runs proposal chains for every free unit of a function.
func (w *Workspace) placeFunction(fid uint64) error {
	if _, ok := w.funcs[fid]; !ok {
		return nil // departed while queued
	}
	for w.funcCaps.remaining[fid] > 0 {
		oid, s, displace, ok, err := w.bestEntry(fid)
		if err != nil {
			return err
		}
		if !ok {
			return nil // no object accepts: the unit stays free
		}
		sh := w.shards[w.objShard[oid]]
		if displace {
			evicted := worstOfObj(sh.byObj[oid])
			w.unlink(evicted)
			w.funcCaps.restore(evicted.fid)
			w.pushFunc(evicted.fid)
		} else if err := sh.consumeUnit(oid); err != nil {
			return err
		}
		w.funcCaps.consume(fid)
		w.link(pair{fid: fid, oid: oid, score: s})
		w.chainLen++
	}
	return nil
}

// shardCand is one shard's answer to a cross-shard search round.
type shardCand struct {
	ok    bool
	id    uint64
	score float64
}

// betterCand is the global combine order for per-shard candidates:
// higher score wins, ties to the lower ID — the same total order BRS
// enumerates inside a single tree, which is what makes the cross-shard
// combine land on the identical object a one-tree search would.
func betterCand(a, b shardCand) bool {
	if !b.ok {
		return a.ok
	}
	if !a.ok {
		return false
	}
	return a.score > b.score || (a.score == b.score && a.id < b.id)
}

// bestEntry finds the best object a function unit can enter, via the
// bounded cross-shard displacement protocol:
//
//  1. frontier-ceiling exchange — every shard's availability skyline
//     reports its best object under the proposer's scorer (one batched
//     columnar pass per shard, no I/O); the global best prices the
//     round;
//  2. displacement search — every shard runs a BRS search over its own
//     tree, skip-filtered to objects that would actually evict for
//     this proposer and bounded below by the availability ceiling, so
//     only the index region that could beat a free object is expanded;
//  3. combine — the per-shard winners and the availability best merge
//     by (score desc, ID asc), preferring displacement only when it
//     strictly beats taking the free object, exactly as the
//     single-tree comparison does.
//
// The searches fan out across ShardOptions.SearchWorkers; each shard's
// search touches only its own pool, tree, and scratch.
func (w *Workspace) bestEntry(fid uint64) (oid uint64, sc float64, displace, ok bool, err error) {
	fsc := w.scorerOf(fid)

	frontier, cands := w.frontier, w.cands
	clear(frontier)
	clear(cands)
	_ = w.runShards(func(i int, sh *core) error {
		if it, s, bok := sh.avail.Best(fsc); bok {
			frontier[i] = shardCand{ok: true, id: it.ID, score: s}
		}
		return nil
	})
	var avail shardCand
	for _, c := range frontier {
		if betterCand(c, avail) {
			avail = c
		}
	}
	availScore := math.Inf(-1)
	if avail.ok {
		availScore = avail.score
	}

	bound := availScore
	serr := w.runShards(func(i int, sh *core) error {
		sr := topk.NewScorerSearcher(sh.tree, fsc, func(cand uint64) bool {
			return !w.displaceableIn(sh, fid, fsc, cand)
		})
		it, s, found, err := sr.NextAtLeast(bound)
		if err != nil {
			return err
		}
		if found {
			cands[i] = shardCand{ok: true, id: it.ID, score: s}
		}
		return nil
	})
	w.searches += int64(len(w.shards))
	if serr != nil {
		return 0, 0, false, false, serr
	}
	var best shardCand
	for _, c := range cands {
		if betterCand(c, best) {
			best = c
		}
	}
	if best.ok && (!avail.ok || best.score > avail.score || (best.score == avail.score && best.id < avail.id)) {
		return best.id, best.score, true, true, nil
	}
	if avail.ok {
		return avail.id, avail.score, false, true, nil
	}
	return 0, 0, false, false, nil
}

// displaceableIn reports whether a full object on the given shard would
// evict its worst assignment in favor of the proposing function
// (available objects are handled by the frontier path and skipped
// here). Runs inside the per-shard search fan-out: it reads only the
// shard's own tables plus immutable workspace state.
func (w *Workspace) displaceableIn(sh *core, fid uint64, fsc score.Scorer, oid uint64) bool {
	if sh.caps.remaining[oid] > 0 {
		return false
	}
	worst := worstOfObj(sh.byObj[oid])
	s := fsc.Score(sh.objs[oid].Point)
	return s > worst.score || (s == worst.score && fid < worst.fid)
}

// fillObject runs vacancy chains for every free unit of an object. The
// function side is global; only the object-side capacity bookkeeping
// routes to the owning shard.
func (w *Workspace) fillObject(oid uint64) error {
	sidx, live := w.objShard[oid]
	if !live {
		return nil // departed while queued
	}
	sh := w.shards[sidx]
	for sh.caps.remaining[oid] > 0 {
		gid, s, ok, err := w.bestTaker(sh, oid)
		if err != nil {
			return err
		}
		if !ok {
			return nil // nobody wants the vacancy: it stays open
		}
		if w.funcCaps.remaining[gid] > 0 {
			w.funcCaps.consume(gid)
		} else {
			// The mover abandons its worst unit, cascading the vacancy.
			left := worstOfFunc(w.byFunc[gid])
			w.unlink(left)
			w.shards[w.objShard[left.oid]].restoreUnit(left.oid)
			w.pushObj(left.oid)
		}
		if err := sh.consumeUnit(oid); err != nil {
			return err
		}
		w.link(pair{fid: gid, oid: oid, score: s})
		w.chainLen++
	}
	return nil
}

// bestTaker finds the best function that wants a vacant object unit:
// a function with spare capacity wants it at any score; a fully
// assigned function wants it only above its current worst assignment.
// The reverse search runs over the global function R-tree, bounded
// below by the weakest assignment any function holds (nothing scoring
// under that can be wanted).
func (w *Workspace) bestTaker(sh *core, oid uint64) (gid uint64, sc float64, ok bool, err error) {
	o := sh.objs[oid]
	bound := math.Inf(1)
	if w.funcCaps.live > 0 {
		// Some function has spare capacity and wants anything: no bound.
		bound = math.Inf(-1)
	} else {
		for fid := range w.funcs {
			if worst := worstOfFunc(w.byFunc[fid]); worst.score < bound {
				bound = worst.score
			}
		}
	}
	sr := topk.NewSearcher(w.ftree, o.Point, func(cand uint64) bool {
		return !w.wants(cand, oid, o.Point)
	})
	w.searches++
	it, s, found, err := sr.NextAtLeast(bound)
	if err != nil {
		return 0, 0, false, err
	}
	gid = it.ID
	// Non-linear functions live outside the weight tree; the columnar
	// blocks score them all with one pass under the same wants filter
	// and bound, ties to the lower ID exactly as the BRS enumeration.
	if bid, v, bok := w.nonlin.Best(o.Point, func(fid uint64, v float64) bool {
		return v >= bound && w.wantsAt(fid, oid, v)
	}); bok {
		if !found || v > s || (v == s && bid < gid) {
			gid, s, found = bid, v, true
		}
	}
	if !found {
		return 0, 0, false, nil
	}
	return gid, s, true, nil
}

// wants reports whether a function prefers the vacant object over its
// current worst assignment (or has a free unit).
func (w *Workspace) wants(fid, oid uint64, point geom.Point) bool {
	if w.funcCaps.remaining[fid] > 0 {
		return true
	}
	return w.wantsAt(fid, oid, w.scorerOf(fid).Score(point))
}

// wantsAt is wants with the function's score for the object already in
// hand (spare capacity is re-checked so both entry points agree).
func (w *Workspace) wantsAt(fid, oid uint64, s float64) bool {
	if w.funcCaps.remaining[fid] > 0 {
		return true
	}
	worst := worstOfFunc(w.byFunc[fid])
	return s > worst.score || (s == worst.score && oid < worst.oid)
}
