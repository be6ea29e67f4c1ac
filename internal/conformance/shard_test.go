package conformance

import (
	"testing"

	"fairassign/internal/datagen"
)

// shardSweep enumerates the invariance scripts: 3 distributions × dims
// 2..5 × {plain, capacities+priorities}, 10 batches each. Every script
// replays on a one-shard reference Workspace (checked against a cold
// solve after every batch) and on workspaces at every ShardCounts entry
// simultaneously.
func shardSweep(scriptsPerCell int) []MutationSpec {
	var specs []MutationSpec
	seed := int64(11_000)
	for _, kind := range []datagen.Kind{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
		for dims := 2; dims <= 5; dims++ {
			for _, caps := range []bool{false, true} {
				for s := 0; s < scriptsPerCell; s++ {
					specs = append(specs, MutationSpec{
						Seed:   seed,
						Kind:   kind,
						Dims:   dims,
						Caps:   caps,
						Gammas: caps,
						Steps:  10,
					})
					seed++
				}
			}
		}
	}
	return specs
}

// TestShardInvarianceSweep is the acceptance gate for the sharded tier:
// at shard counts {1,2,4,7}, the matching must stay byte-identical to
// the one-shard reference's after every mutation batch,
// with agreeing invariant stats and exactly matching global TopK
// results through the ceiling merge.
func TestShardInvarianceSweep(t *testing.T) {
	for _, spec := range shardSweep(2) {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			if err := VerifyShardInvariance(spec, config(), ShardCounts); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardInvarianceScorers mixes non-linear scorer families into the
// scripts: the cross-shard frontier exchange and displacement combine
// must agree with the single-tree search under OWA, minimax, and the
// other monotone families too.
func TestShardInvarianceScorers(t *testing.T) {
	seed := int64(12_000)
	for _, kind := range []datagen.Kind{datagen.Independent, datagen.AntiCorrelated} {
		for dims := 2; dims <= 4; dims++ {
			spec := MutationSpec{Seed: seed, Kind: kind, Dims: dims, Caps: true, Scorers: true, Steps: 10}
			seed++
			t.Run(spec.String(), func(t *testing.T) {
				t.Parallel()
				if err := VerifyShardInvariance(spec, config(), ShardCounts); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestShardInvarianceFileStore re-runs one script per grid cell with
// every shard store on a real temp-file FileStore.
func TestShardInvarianceFileStore(t *testing.T) {
	for _, spec := range shardSweep(1) {
		spec := spec
		if spec.Dims%2 == 1 { // halve the grid: file I/O scripts are slower
			continue
		}
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			cfg := config()
			cfg.StoreFactory = fileStoreFactory(t.TempDir())
			if err := VerifyShardInvariance(spec, cfg, ShardCounts); err != nil {
				t.Fatal(err)
			}
		})
	}
}
