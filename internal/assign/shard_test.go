package assign

import (
	"errors"
	"math/rand"
	"testing"

	"fairassign/internal/geom"
)

func TestCleanShardCaptureReuse(t *testing.T) {
	p := randProblem(rand.New(rand.NewSource(42)), 8, 400, 2)
	w, err := NewShardedWorkspace(p, Config{PageSize: 512}, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	v1, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()

	// A single object arrival dirties exactly one shard. The next
	// snapshot must reuse the other shards' cached captures: same
	// shardPub pointers, new one only where the mutation landed.
	o := Object{ID: 900_100, Point: geom.Point{0.77, 0.18}}
	dirty := w.RouteObject(o.Point, o.ID)
	if err := w.Apply([]Mutation{{Kind: MutAddObject, Object: o}}); err != nil {
		t.Fatal(err)
	}
	v2, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	for i := range v1.pub.shards {
		same := v1.pub.shards[i] == v2.pub.shards[i]
		if i == dirty && same {
			t.Fatalf("dirty shard %d did not recapture", i)
		}
		if i != dirty && !same {
			t.Fatalf("clean shard %d recaptured (epoch %d -> %d)", i,
				v1.pub.shards[i].epoch, v2.pub.shards[i].epoch)
		}
	}
	// Epochs advance only on the dirty shard.
	if v2.pub.shards[dirty].epoch <= v1.pub.shards[dirty].epoch {
		t.Fatalf("dirty shard epoch did not advance")
	}
}

// TestRunShardsLowestShardErrorWins pins runShards' error contract:
// every shard runs even when some fail, and the error returned is the
// lowest-numbered failing shard's, sequentially and fanned out alike.
func TestRunShardsLowestShardErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w := &Workspace{workers: workers}
		for i := 0; i < 5; i++ {
			w.shards = append(w.shards, &core{})
		}
		errs := []error{nil, errors.New("shard 1"), nil, errors.New("shard 3"), nil}
		ran := make([]bool, len(w.shards))
		err := w.runShards(func(i int, sh *core) error {
			ran[i] = true
			return errs[i]
		})
		if err != errs[1] {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errs[1])
		}
		for i, ok := range ran {
			if !ok {
				t.Fatalf("workers=%d: shard %d skipped after an earlier failure", workers, i)
			}
		}
		if err := w.runShards(func(int, *core) error { return nil }); err != nil {
			t.Fatalf("workers=%d: clean run returned %v", workers, err)
		}
	}
}
