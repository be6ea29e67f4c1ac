package fairassign

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func snapshotTestWorkspace(t *testing.T) *Workspace {
	t.Helper()
	objects := GenerateObjects(Independent, 200, 3, 11)
	functions := GenerateFunctions(20, 3, 13)
	ws, err := NewWorkspace(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func samePublicPairs(t *testing.T, label string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].FunctionID != want[i].FunctionID || got[i].ObjectID != want[i].ObjectID ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: pair %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// A public View is frozen across mutations; a fresh snapshot and the
// live accessors agree; Verify and TopK answer from the pinned epoch.
func TestPublicViewSnapshotIsolation(t *testing.T) {
	ws := snapshotTestWorkspace(t)
	defer ws.Close()

	view, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	before := view.Assignment()
	beforeStats := view.Stats()
	pref := Function{ID: 999, Weights: []float64{2, 1, 1}}
	beforeTop, err := view.TopK(pref, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate: retire the first two assigned objects, add replacements,
	// rotate a candidate.
	for i, p := range before[:2] {
		if err := ws.RemoveObject(p.ObjectID); err != nil {
			t.Fatal(err)
		}
		if err := ws.AddObject(Object{ID: 5_000 + uint64(i), Attributes: []float64{0.9, 0.8, 0.7}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.RemoveFunction(before[0].FunctionID); err != nil {
		t.Fatal(err)
	}

	samePublicPairs(t, "pinned view after mutations", view.Assignment(), before)
	if !reflect.DeepEqual(view.Stats(), beforeStats) {
		t.Fatalf("pinned view stats drifted")
	}
	afterTop, err := view.TopK(pref, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(afterTop) != len(beforeTop) {
		t.Fatalf("pinned TopK drifted in size")
	}
	for i := range afterTop {
		if afterTop[i].Object.ID != beforeTop[i].Object.ID ||
			math.Float64bits(afterTop[i].Score) != math.Float64bits(beforeTop[i].Score) {
			t.Fatalf("pinned TopK[%d] drifted: %+v vs %+v", i, afterTop[i], beforeTop[i])
		}
	}
	if err := view.Verify(); err != nil {
		t.Fatalf("pinned view Verify: %v", err)
	}

	fresh, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.Epoch() <= view.Epoch() {
		t.Fatalf("epoch did not advance: %d -> %d", view.Epoch(), fresh.Epoch())
	}
	samePublicPairs(t, "fresh view vs live", fresh.Assignment(), ws.Assignment())
	if err := fresh.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := fresh.AssignmentOf(before[1].FunctionID); len(got) == 0 {
		t.Fatalf("fresh view lost function %d", before[1].FunctionID)
	}
}

// Public typed errors are errors.Is-able through the API surface.
func TestPublicWorkspaceTypedErrors(t *testing.T) {
	ws := snapshotTestWorkspace(t)
	a := ws.Assignment()

	if err := ws.AddObject(Object{ID: a[0].ObjectID, Attributes: []float64{1, 2, 3}}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate AddObject: %v", err)
	}
	if err := ws.RemoveObject(31_337_000); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown RemoveObject: %v", err)
	}
	view, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ws.Close()
	if err := ws.AddObject(Object{ID: 1, Attributes: []float64{1, 2, 3}}); !errors.Is(err, ErrWorkspaceClosed) {
		t.Fatalf("AddObject after Close: %v", err)
	}
	if _, err := ws.Snapshot(); !errors.Is(err, ErrWorkspaceClosed) {
		t.Fatalf("Snapshot after Close: %v", err)
	}
	// The pre-close view still answers, then fails typed after its own
	// Close.
	if len(view.Assignment()) == 0 {
		t.Fatal("pre-close view lost its assignment")
	}
	view.Close()
	if err := view.Verify(); !errors.Is(err, ErrViewClosed) {
		t.Fatalf("Verify on closed view: %v", err)
	}
	if _, err := view.TopK(Function{ID: 1, Weights: []float64{1, 1, 1}}, 3); !errors.Is(err, ErrViewClosed) {
		t.Fatalf("TopK on closed view: %v", err)
	}
}

// Concurrent smoke through the public API: one mutating goroutine, many
// snapshot readers (exercised under -race by CI).
func TestPublicWorkspaceConcurrentReaders(t *testing.T) {
	ws := snapshotTestWorkspace(t)
	defer ws.Close()

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				v, err := ws.Snapshot()
				if err != nil {
					t.Errorf("Snapshot: %v", err)
					return
				}
				st := v.Stats()
				pairs := v.Assignment()
				if len(pairs) != st.AssignedUnits {
					t.Errorf("view inconsistent: %d pairs, stats say %d", len(pairs), st.AssignedUnits)
				}
				v.Close()
			}
		}()
	}
	for i := 0; i < 60; i++ {
		if err := ws.AddObject(Object{ID: 10_000 + uint64(i), Attributes: []float64{0.5, 0.5, 0.5}}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := ws.RemoveObject(10_000 + uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
}
