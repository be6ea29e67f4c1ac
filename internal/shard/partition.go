// Package shard partitions a workspace's object space across shards:
// a spatial range partition cut along the STR bulk-load key order, with
// an ID-hash fallback for degenerate distributions. The sharded
// workspace itself (one repair engine for any shard count) lives in
// internal/assign.
package shard

import (
	"sort"

	"fairassign/internal/geom"
)

// Key is the routing key of one object: its point and its ID.
type Key struct {
	Point geom.Point
	ID    uint64
}

// PartitionKind selects how objects are mapped to shards.
type PartitionKind uint8

const (
	// PartitionAuto derives a spatial partition from the initial object
	// set and falls back to hashing when the distribution is degenerate
	// (too few objects, or not enough distinct coordinates on any axis
	// to cut balanced ranges).
	PartitionAuto PartitionKind = iota
	// PartitionSpatial forces the spatial range partition.
	PartitionSpatial
	// PartitionHash forces ID hashing.
	PartitionHash
)

func (k PartitionKind) String() string {
	switch k {
	case PartitionSpatial:
		return "spatial"
	case PartitionHash:
		return "hash"
	default:
		return "auto"
	}
}

// splitKey is one range boundary of the spatial partition: the STR sort
// key of the first object of a shard's range. Keys are (coordinate on
// the split axis, object ID) — exactly the order rtree's STR bulk load
// sorts its top-level slabs by, so contiguous key ranges are contiguous
// runs of the bulk-load layout and spatially coherent.
type splitKey struct {
	coord float64
	id    uint64
}

func (k splitKey) less(coord float64, id uint64) bool {
	if k.coord != coord {
		return k.coord < coord
	}
	return k.id < id
}

// Partitioner maps objects to shards and never changes for the life of
// an engine: arrivals are routed by the boundaries (or hash) derived
// from the initial population, so an object's owning shard is a pure
// function of its point and ID.
type Partitioner struct {
	n    int
	kind PartitionKind // resolved: PartitionSpatial or PartitionHash
	dim  int           // split axis of the spatial partition
	cuts []splitKey    // n-1 ascending boundaries; shard i owns keys < cuts[i]
}

// NewPartitioner derives a partitioner for n shards from the initial
// objects. With PartitionAuto (or PartitionSpatial) it sorts the
// objects in STR key order — center coordinate on the split axis, ties
// by ID — and cuts n equal contiguous ranges, choosing the axis with
// the most distinct coordinates; if no axis offers at least n distinct
// values (a degenerate distribution: everything stacked on a line, or
// fewer objects than shards), Auto falls back to ID hashing, which
// keeps shards balanced regardless of geometry.
func NewPartitioner(dims, n int, objs []Key, kind PartitionKind) *Partitioner {
	if n < 1 {
		n = 1
	}
	p := &Partitioner{n: n, kind: PartitionHash}
	if n == 1 {
		p.kind = PartitionSpatial // trivially spatial: one range
		return p
	}
	if kind == PartitionHash {
		return p
	}
	dim, ok := bestSplitAxis(dims, n, objs)
	if !ok {
		if kind == PartitionSpatial {
			// Forced spatial on a degenerate distribution: cut on axis 0
			// anyway (ID ties keep the ranges well defined).
			dim = 0
		} else {
			return p
		}
	}
	keys := make([]splitKey, len(objs))
	for i, o := range objs {
		keys[i] = splitKey{coord: o.Point[dim], id: o.ID}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j].coord, keys[j].id) })
	p.kind = PartitionSpatial
	p.dim = dim
	p.cuts = make([]splitKey, 0, n-1)
	for s := 1; s < n; s++ {
		at := s * len(keys) / n
		if at >= len(keys) {
			at = len(keys) - 1
		}
		p.cuts = append(p.cuts, keys[at])
	}
	return p
}

// bestSplitAxis picks the axis with the most distinct coordinates,
// requiring at least n so every range boundary separates real mass.
func bestSplitAxis(dims, n int, objs []Key) (int, bool) {
	bestDim, bestDistinct := 0, 0
	seen := make(map[float64]struct{}, len(objs))
	for d := 0; d < dims; d++ {
		clear(seen)
		for _, o := range objs {
			seen[o.Point[d]] = struct{}{}
		}
		if len(seen) > bestDistinct {
			bestDim, bestDistinct = d, len(seen)
		}
	}
	return bestDim, bestDistinct >= n && len(objs) >= n
}

// Shards returns the shard count.
func (p *Partitioner) Shards() int { return p.n }

// Kind returns the resolved partition strategy.
func (p *Partitioner) Kind() PartitionKind { return p.kind }

// Route returns the shard owning an object. Spatial routing is a
// binary search over the range boundaries on the split axis; hash
// routing mixes the ID through splitmix64.
func (p *Partitioner) Route(pt geom.Point, id uint64) int {
	if p.n == 1 {
		return 0
	}
	if p.kind == PartitionHash || p.dim >= len(pt) {
		// Hash partition, or a malformed point (wrong dimensionality —
		// validation will reject the mutation, but routing must not
		// panic first).
		return int(splitmix64(id) % uint64(p.n))
	}
	c := pt[p.dim]
	lo, hi := 0, len(p.cuts) // shard index = number of cuts <= key
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cuts[mid].less(c, id) || p.cuts[mid] == (splitKey{coord: c, id: id}) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splitmix64 is the standard 64-bit finalizer (Vigna); enough avalanche
// that sequential IDs spread uniformly over shards.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
