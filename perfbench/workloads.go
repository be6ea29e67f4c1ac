package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fairassign"
)

// Every workload is driven by this one goroutine in a closed loop: a
// step starts only after the previous one returned. README.md gives the
// reason each workload was chosen and what it should show.

var serveOptions = fairassign.Options{Workers: workers, BuildWorkers: workers}

// read runs one Snapshot+TopK+Close against a workspace of either kind,
// recording the three calls as spans under a "read" span.
func read[V interface {
	TopK(fairassign.Function, int) ([]fairassign.Ranked, error)
	Close()
}](r *run, kind string, topkName string, snapshot func() (V, error), q fairassign.Function) ([]fairassign.Ranked, time.Duration, error) {
	var res []fairassign.Ranked
	d, err := r.call("read", func() error {
		var v V
		if _, err := r.call(kind+"Workspace.Snapshot", func() (err error) { v, err = snapshot(); return }); err != nil {
			return err
		}
		_, err := r.call(topkName, func() (err error) { res, err = v.TopK(q, r.sz.k); return })
		r.call(kind+"View.Close", func() error { v.Close(); return nil })
		return err
	})
	return res, d, err
}

// serveObjects: object churn on a Workspace, one read per mutation.
func serveObjects(r *run) error {
	sz, rng := r.sz, r.rng
	objs := anticorrelated(rng, sz.objects, 1)
	funcs := users(rng, sz.functions, 1)
	queries := users(rng, sz.queries, 1)
	ws, err := setup(r, func() (*fairassign.Workspace, error) {
		return fairassign.NewWorkspace(objs, funcs, serveOptions)
	}, (*fairassign.Workspace).Close)
	if err != nil {
		return err
	}
	defer ws.Close()

	pop := newLive(objs, level)
	arrive, leave := newStream(rng), newStream(rng)
	nextID := uint64(sz.objects + 1)
	step := 0
	var lastQ fairassign.Function
	var lastRead []fairassign.Ranked
	do := func() error {
		var m fairassign.Mutation
		var arrival fairassign.Object
		leaving := -1
		if step%2 == 0 {
			arrival = fairassign.Object{ID: nextID, Attributes: band(arrive.next(), rng.Float64())}
			nextID++
			m = fairassign.AddObjectOp(arrival)
		} else {
			leaving = pop.rank(leave.next())
			m = fairassign.RemoveObjectOp(pop.items[leaving].ID)
		}
		q := queries[step%len(queries)]
		step++
		d, err := r.call("Workspace.Apply", func() error { return ws.Apply([]fairassign.Mutation{m}) })
		if err != nil {
			return err
		}
		if leaving >= 0 {
			r.recordOp(departureOp, d)
			pop.removeAt(leaving)
		} else {
			r.recordOp(arrivalOp, d)
			pop.add(arrival)
		}
		res, d, err := read(r, "", "View.TopK(first)", ws.Snapshot, q)
		if err != nil {
			return err
		}
		r.recordAux(d)
		lastQ, lastRead = q, res
		return nil
	}

	st0 := ws.Stats()
	if err := r.warm(sz.warmObjects, do); err != nil {
		return err
	}
	st1 := ws.Stats()
	if err := r.loop(do); err != nil {
		return err
	}
	r.gate(gateServe(ws.Assignment(), pop.items, funcs, lastQ, lastRead, sz.k))
	if !r.cfg.trace {
		return nil
	}
	r.layerAssign(st0, st1)
	r.set("topk.first_ms_p50", r.spanMedian("View.TopK(first)"), "ms")
	return r.layerCommon()
}

// serveUsers: user churn on a 4-shard ShardedWorkspace, eight reads per
// mutation with scorers rotating over Linear, Chebyshev and OWA. The
// users are few (150 for 20,000 objects) so that repair chains stay
// short: at 800 users a mutation averaged 18 to 41 chain steps depending
// on the seed's population, even when every departing user rejoined, and
// no run was long enough to average that out; at 150 it is 3.1 to 3.7.
func serveUsers(r *run) error {
	sz, rng := r.sz, r.rng
	objs := anticorrelated(rng, sz.objects, 1)
	funcs := users(rng, sz.shardUsers, 1)
	queries := users(rng, sz.queries, 1)
	scorers := []*fairassign.Scorer{fairassign.Linear(), fairassign.Chebyshev(), fairassign.OWA()}
	for i := range queries {
		queries[i].Scorer = scorers[i%len(scorers)]
	}
	sopts := fairassign.ShardedOptions{Options: serveOptions, Shards: sz.shards, SearchWorkers: workers}
	sw, err := setup(r, func() (*fairassign.ShardedWorkspace, error) {
		return fairassign.NewShardedWorkspace(objs, funcs, sopts)
	}, (*fairassign.ShardedWorkspace).Close)
	if err != nil {
		return err
	}
	defer sw.Close()

	pop := newLive(funcs, angle)
	arrive, leave := newStream(rng), newStream(rng)
	nextID := uint64(sz.shardUsers + 1)
	step, nq := 0, 0
	var lastQ fairassign.Function
	var lastRead []fairassign.Ranked
	do := func() error {
		var m fairassign.Mutation
		var arrival fairassign.Function
		leaving := -1
		if step%2 == 0 {
			arrival = fairassign.Function{ID: nextID, Weights: direction(arrive.next())}
			nextID++
			m = fairassign.AddFunctionOp(arrival)
		} else {
			leaving = pop.rank(leave.next())
			m = fairassign.RemoveFunctionOp(pop.items[leaving].ID)
		}
		step++
		d, err := r.call("ShardedWorkspace.Apply", func() error { return sw.Apply([]fairassign.Mutation{m}) })
		if err != nil {
			return err
		}
		if leaving >= 0 {
			r.recordOp(departureOp, d)
			pop.removeAt(leaving)
		} else {
			r.recordOp(arrivalOp, d)
			pop.add(arrival)
		}
		// The burst of reads after a mutation is the secondary call: one
		// warm read takes about 0.2 ms, too short to time steadily alone.
		d, err = r.call("reads", func() error {
			for j := 0; j < sz.readsPerStep; j++ {
				q := queries[nq%len(queries)]
				nq++
				name := "ShardedView.TopK(warm)"
				if j == 0 {
					name = "ShardedView.TopK(first)"
				}
				res, _, err := read(r, "Sharded", name, sw.Snapshot, q)
				if err != nil {
					return err
				}
				lastQ, lastRead = q, res
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.recordAux(d)
		return nil
	}

	st0 := sw.Stats()
	if err := r.warm(sz.warmUsers, do); err != nil {
		return err
	}
	st1 := sw.Stats()
	if err := r.loop(do); err != nil {
		return err
	}
	r.gate(gateServe(sw.Assignment(), objs, pop.items, lastQ, lastRead, sz.k))
	if !r.cfg.trace {
		return nil
	}
	muts := float64(st1.Mutations - st0.Mutations)
	commits := float64(st1.Commits - st0.Commits)
	var dirty uint64
	maxObjs := 0
	for i := range st1.PerShard {
		dirty += st1.PerShard[i].Epoch - st0.PerShard[i].Epoch
		maxObjs = max(maxObjs, st1.PerShard[i].Objects)
	}
	r.set("shard.apply_ms_mean", r.spanMean("ShardedWorkspace.Apply"), "ms")
	r.set("shard.snapshot_ms_p50", r.spanMedian("ShardedWorkspace.Snapshot"), "ms")
	r.set("shard.chain_steps_per_mut", float64(st1.ChainSteps-st0.ChainSteps)/muts, "count")
	r.set("shard.searches_per_mut", float64(st1.Searches-st0.Searches)/muts, "count")
	r.set("shard.io_per_mut", float64(st1.IOAccesses-st0.IOAccesses)/muts, "count")
	r.set("shard.dirty_shards_per_commit", float64(dirty)/commits, "count")
	r.set("shard.frontier_size", float64(st1.AvailableFrontier), "count")
	r.set("shard.max_objects_share", float64(maxObjs)/float64(st1.Objects), "share")
	r.set("topk.first_ms_p50", r.spanMedian("ShardedView.TopK(first)"), "ms")
	r.set("topk.warm_ms_p50", r.spanMedian("ShardedView.TopK(warm)"), "ms")
	return r.layerCommon()
}

// solveBatch: repeated cold SB solves of one tie-heavy d=4 population.
func solveBatch(r *run) error {
	sz, rng := r.sz, r.rng
	objs := quantised(rng, sz.solveObjects, 4, sz.levels)
	funcs := randomUsers(rng, sz.solveFunctions, 4)
	opts := fairassign.Options{Workers: workers, BuildWorkers: workers}
	var first *fairassign.Result
	solver, err := setup(r, func() (*fairassign.Solver, error) {
		s, err := fairassign.NewSolver(objs, funcs, opts)
		if err != nil {
			return nil, err
		}
		res, err := s.Solve()
		if first == nil {
			first = res
		}
		return s, err
	}, func(*fairassign.Solver) {})
	if err != nil {
		return err
	}

	var solves [][]fairassign.Pair
	do := func() error {
		var s *fairassign.Solver
		d, err := r.call("NewSolver", func() (err error) { s, err = fairassign.NewSolver(objs, funcs, opts); return })
		if err != nil {
			return err
		}
		r.recordAux(d)
		var res *fairassign.Result
		d, err = r.call("Solver.Solve", func() (err error) { res, err = s.Solve(); return })
		if err != nil {
			return err
		}
		r.recordOp(onlyOp, d)
		solves = append(solves, res.Pairs)
		return nil
	}
	if err := r.loop(do); err != nil {
		return err
	}
	// Verify checks stability, not the tie order: on these ties SB's
	// matching can differ bit for bit from the definitional greedy
	// (StableOracle) and from the other algorithms while still stable.
	r.gate(solver.Verify(first.Pairs))
	for i, pairs := range solves {
		if err := samePairs(pairs, first.Pairs); err != nil {
			r.gate(fmt.Errorf("solve %d vs first solve: %w", i+1, err))
		}
	}
	if !r.cfg.trace {
		return nil
	}
	st := first.Stats
	r.set("solve.io_accesses", float64(st.IOAccesses), "count")
	r.set("solve.topk_searches", float64(st.TopKSearches), "count")
	r.set("solve.loops", float64(st.Loops), "count")
	r.set("solve.peak_search_mb", float64(st.PeakMemoryBytes)/(1<<20), "MB")
	return r.layerCommon()
}

// durableRestart: tail churn on a durable Workspace with periodic
// snapshots, ending in a crash and repeated recoveries.
func durableRestart(r *run) error {
	sz, rng := r.sz, r.rng
	objs := anticorrelated(rng, sz.objects, 1)
	funcs := users(rng, sz.functions, 1)
	durable := func(dir string) fairassign.Options {
		o := serveOptions
		o.Durable, o.WALDir = true, dir
		return o
	}
	var dir string
	reps := 0
	ws, err := setup(r, func() (*fairassign.Workspace, error) {
		reps++
		dir = filepath.Join(r.tmp, fmt.Sprintf("wal-%d", reps))
		return fairassign.NewWorkspace(objs, funcs, durable(dir))
	}, (*fairassign.Workspace).Close)
	if err != nil {
		return err
	}
	crashed := false
	defer func() {
		if !crashed {
			ws.Close()
		}
	}()

	tail := newLive(nil, level)
	arrive, leave := newStream(rng), newStream(rng)
	nextID := uint64(sz.objects + 1)
	step, commits := 0, 0
	periodic := true // SaveSnapshot every sz.snapEvery commits
	var saves []float64
	save := func() error {
		d, err := r.call("Workspace.SaveSnapshot", ws.SaveSnapshot)
		saves = append(saves, d.Seconds())
		return err
	}
	// saveTwice leaves a fallback generation with an empty log, so a
	// recovery replays exactly the batches logged after this point, not
	// however many the last periodic snapshot left behind.
	saveTwice := func() error {
		if err := save(); err != nil {
			return err
		}
		return save()
	}
	do := func() error {
		var m fairassign.Mutation
		var arrival fairassign.Object
		leaving := -1
		if step < sz.tailPool || step%2 == 0 {
			arrival = fairassign.Object{ID: nextID, Attributes: dominated2(arrive.next(), rng.Float64())}
			nextID++
			m = fairassign.AddObjectOp(arrival)
		} else {
			leaving = tail.rank(leave.next())
			m = fairassign.RemoveObjectOp(tail.items[leaving].ID)
		}
		step++
		d, err := r.call("Workspace.Apply", func() error { return ws.Apply([]fairassign.Mutation{m}) })
		if err != nil {
			return err
		}
		if leaving >= 0 {
			r.recordOp(departureOp, d)
			tail.removeAt(leaving)
		} else {
			r.recordOp(arrivalOp, d)
			tail.add(arrival)
		}
		commits++
		if periodic && commits%sz.snapEvery == 0 {
			return save()
		}
		return nil
	}
	// recoverAll opens the directory read-only (no new log segment) reps
	// times and returns the wall times and the last recovered workspace.
	recoverAll := func(reps int) ([]float64, *fairassign.Workspace, error) {
		var out []float64
		var last *fairassign.Workspace
		for i := 0; i < reps; i++ {
			if last != nil {
				last.Close()
			}
			runtime.GC()
			t0 := time.Now()
			w, err := fairassign.OpenWorkspace(fairassign.Options{Workers: workers, BuildWorkers: workers, WALDir: dir})
			if err != nil {
				return nil, nil, fmt.Errorf("recovery: %w", err)
			}
			out = append(out, time.Since(t0).Seconds())
			last = w
		}
		return out, last, nil
	}

	st0 := ws.Stats()
	if err := r.warm(sz.warmDurable, do); err != nil {
		return err
	}
	st1 := ws.Stats()
	if err := saveTwice(); err != nil {
		return err
	}
	snapMB, err := newestSize(dir, ".fasnap")
	if err != nil {
		return err
	}
	restore, rw, err := recoverAll(sz.recoverReps)
	if err != nil {
		return err
	}
	rw.Close()
	saves = saves[:0]
	if err := r.loop(do); err != nil {
		return err
	}

	// Crash: log a fixed number of batches past a fresh snapshot, then
	// abandon the workspace without Close and recover from its files.
	if err := saveTwice(); err != nil {
		return err
	}
	periodic = false
	for i := 0; i < sz.tailBatches; i++ {
		if err := do(); err != nil {
			return fmt.Errorf("pre-crash batch %d: %w", i, err)
		}
	}
	walBytes, err := newestSize(dir, ".fawal")
	if err != nil {
		return err
	}
	crashed = true
	recovered, rec, err := recoverAll(sz.recoverReps)
	if err != nil {
		return err
	}
	for _, s := range recovered {
		r.main.aux = append(r.main.aux, s*1000)
	}
	replayed := rec.Recovery().BatchesReplayed
	r.gate(sameState(rec, ws))
	rec.Close()
	ws.Close()
	if !r.cfg.trace {
		return nil
	}
	r.layerAssign(st0, st1)
	r.set("wal.bytes_per_mut", walBytes/float64(sz.tailBatches), "B")
	r.set("snapshot.save_s", median(saves), "s")
	r.set("snapshot.file_mb", snapMB/(1<<20), "MB")
	r.set("recover.restore_s", median(restore), "s")
	r.set("recover.replay_ms_per_batch", (median(recovered)-median(restore))*1000/float64(replayed), "ms")
	r.set("recover.batches_replayed", float64(replayed), "count")
	return r.layerCommon()
}

// sameState checks that a recovered workspace holds exactly the
// acknowledged state of the crashed one.
func sameState(rec, crashed *fairassign.Workspace) error {
	a, b := rec.Stats(), crashed.Stats()
	if a.Objects != b.Objects || a.Functions != b.Functions {
		return fmt.Errorf("recovered population %d objects/%d functions, acknowledged %d/%d",
			a.Objects, a.Functions, b.Objects, b.Functions)
	}
	if err := samePairs(rec.Assignment(), crashed.Assignment()); err != nil {
		return fmt.Errorf("recovered matching vs acknowledged: %w", err)
	}
	return nil
}

// newestSize returns the size in bytes of the last file (by name) in dir
// with the given suffix.
func newestSize(dir, suffix string) (float64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*"+suffix))
	if err != nil {
		return 0, err
	}
	if len(names) == 0 {
		return 0, errors.New("no " + suffix + " file in " + dir)
	}
	fi, err := os.Stat(names[len(names)-1])
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()), nil
}

// layerAssign sets the Workspace engine's per-layer metrics: span
// timings of the traced segment and exact counters over the warm-up.
func (r *run) layerAssign(st0, st1 fairassign.WorkspaceStats) {
	muts := float64(st1.Mutations - st0.Mutations)
	r.set("assign.apply_ms_mean", r.spanMean("Workspace.Apply"), "ms")
	r.set("assign.snapshot_ms_p50", r.spanMedian("Workspace.Snapshot"), "ms")
	r.set("assign.chain_steps_per_mut", float64(st1.ChainSteps-st0.ChainSteps)/muts, "count")
	r.set("assign.searches_per_mut", float64(st1.Searches-st0.Searches)/muts, "count")
	r.set("assign.io_per_mut", float64(st1.IOAccesses-st0.IOAccesses)/muts, "count")
	r.set("assign.commits_per_mut", float64(st1.Commits-st0.Commits)/muts, "count")
	r.set("assign.frontier_size", float64(st1.AvailableFrontier), "count")
}
