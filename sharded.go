package fairassign

import (
	"fairassign/internal/assign"
	"fairassign/internal/shard"
)

// PartitionStrategy selects how a sharded Workspace maps objects to
// shards.
type PartitionStrategy uint8

const (
	// PartitionAuto (the default) derives a spatial range partition
	// from the initial object set — contiguous slabs of the STR
	// bulk-load key order, so each shard covers a coherent region —
	// and falls back to ID hashing when the distribution is degenerate
	// (fewer objects than shards, or not enough distinct coordinate
	// values on any axis to cut balanced ranges).
	PartitionAuto PartitionStrategy = iota
	// PartitionSpatial forces the spatial range partition.
	PartitionSpatial
	// PartitionHash forces ID hashing.
	PartitionHash
)

func (s PartitionStrategy) String() string { return s.internal().String() }

func (s PartitionStrategy) internal() shard.PartitionKind {
	switch s {
	case PartitionSpatial:
		return shard.PartitionSpatial
	case PartitionHash:
		return shard.PartitionHash
	default:
		return shard.PartitionAuto
	}
}

// ErrDurabilityUnsupported is returned by NewShardedWorkspace when the
// Options request a WAL with more than one shard. Durable workspaces run
// at one shard; a multi-shard workspace is a rebuildable serving layer.
var ErrDurabilityUnsupported = assign.ErrDurabilityUnsupported

// ShardedOptions configures NewShardedWorkspace: the embedded Options
// are honored exactly as in NewWorkspace (Durable/WALDir only at one
// shard), plus the shard layout.
type ShardedOptions struct {
	Options
	// Shards is the number of object shards (<= 0 means 1).
	Shards int
	// Partition selects the object->shard mapping.
	Partition PartitionStrategy
	// SearchWorkers bounds how many shards repair probes and commit
	// flushes touch concurrently: <= 0 uses min(Shards, GOMAXPROCS);
	// 1 runs them sequentially. The matching is identical either way.
	SearchWorkers int
}

// ShardedWorkspace, ShardedView, and ShardedStats name the sharded face
// of the one workspace type.
type (
	ShardedWorkspace = Workspace
	ShardedView      = View
	ShardedStats     = WorkspaceStats
)

// ShardedQueue is the shard-routing group-commit front end for a
// sharded Workspace: one MutationQueue per shard for object operations
// (routed to the owning shard) plus one for function operations. Each
// pump's batches are shard-coherent, so a drained batch dirties one
// shard and its commit flushes and republishes 1/N of the page state —
// K producers writing to K different shards coalesce into per-shard
// group commits instead of interleaving into batches that dirty
// everything.
type ShardedQueue struct {
	sw     *ShardedWorkspace
	queues []*MutationQueue // queues[i] serves shard i; queues[n] serves function ops
}

// NewShardedQueue starts one pump per shard plus one for function
// operations, all committing into the workspace. maxBatch caps each
// pump's group commit (<= 0 means DefaultMaxBatch). The queue does not
// own the workspace: Close stops the pumps but leaves it open.
func NewShardedQueue(sw *ShardedWorkspace, maxBatch int) *ShardedQueue {
	n := sw.Shards()
	q := &ShardedQueue{sw: sw, queues: make([]*MutationQueue, n+1)}
	for i := range q.queues {
		q.queues[i] = NewMutationQueue(sw, maxBatch)
	}
	return q
}

func (q *ShardedQueue) route(m Mutation) *MutationQueue {
	s := q.sw.RouteMutation(m)
	if s < 0 {
		return q.queues[len(q.queues)-1]
	}
	return q.queues[s]
}

// Enqueue submits one mutation to its shard's pump and returns a
// 1-buffered verdict channel; see MutationQueue.Enqueue.
func (q *ShardedQueue) Enqueue(m Mutation) <-chan error { return q.route(m).Enqueue(m) }

// Close stops accepting new mutations, waits for everything already
// enqueued to commit, and stops every pump. Idempotent.
func (q *ShardedQueue) Close() {
	for _, mq := range q.queues {
		mq.Close()
	}
}

// Stats aggregates the per-pump coalescing counters.
func (q *ShardedQueue) Stats() QueueStats {
	var out QueueStats
	for _, mq := range q.queues {
		s := mq.Stats()
		out.Mutations += s.Mutations
		out.Batches += s.Batches
		out.Retries += s.Retries
		out.Dropped += s.Dropped
	}
	return out
}
