package dynamic

import (
	"math/rand"
	"testing"

	"hbn/internal/tree"
)

// bfsDist computes, from scratch, the multi-source BFS distance of every
// node to the given copy set — the specification the incrementally
// maintained nearest tables must match.
func bfsDist(t *tree.Tree, copies []tree.NodeID) []int32 {
	dist := make([]int32, t.Len())
	for i := range dist {
		dist[i] = -1
	}
	var queue []tree.NodeID
	for _, v := range copies {
		if dist[v] == 0 {
			continue
		}
		dist[v] = 0
		queue = append(queue, v)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, h := range t.Adj(v) {
			if dist[h.To] < 0 {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return dist
}

// checkNearestTables asserts the nearest-copy resolution of every
// materialized object against a from-scratch BFS. Objects in connected
// mode (tableValid off — every request-driven state) keep no tables at
// all; for them the check pins the connectivity invariant the anchor walk
// depends on and verifies pathToNearest lands on a true nearest copy with
// a path of exactly that length. Adopted objects must hold valid tables:
// ndist equals the true distance to the copy set, nearest points at an
// actual copy, and the pointed-at copy really is at distance ndist (so
// "nearest" is not just any copy). Exact tie-breaking is NOT part of the
// table contract — relaxation keeps the previous reference copy on ties, a
// fresh BFS picks by seeding order — so the check compares distances, not
// identities; in connected mode the nearest copy is unique, so there the
// identity is pinned too.
func checkNearestTables(t *testing.T, tr *tree.Tree, s *Strategy, ctx string) {
	t.Helper()
	r := tr.Rooted0()
	for x := 0; x < s.NumObjects(); x++ {
		o := s.objs[x]
		if o == nil {
			continue
		}
		want := bfsDist(tr, o.copyList)
		if !o.tableValid {
			if !copySetConnected(tr, o.copyList) {
				t.Fatalf("%s: object %d in connected mode with disconnected copies %v",
					ctx, x, o.copyList)
			}
			for v := 0; v < tr.Len(); v++ {
				id := tree.NodeID(v)
				near, path := s.pathToNearest(o, id)
				if !o.isCopy[near] || int32(len(path)) != want[v] ||
					int32(r.PathLen(id, near)) != want[v] {
					t.Fatalf("%s: object %d node %d: pathToNearest (%d, %d edges), true nearest at %d",
						ctx, x, v, near, len(path), want[v])
				}
			}
			continue
		}
		for v := 0; v < tr.Len(); v++ {
			id := tree.NodeID(v)
			if o.ndist[v] != want[v] {
				t.Fatalf("%s: object %d node %d: incremental dist %d != BFS %d (copies %v)",
					ctx, x, v, o.ndist[v], want[v], o.copyList)
			}
			near := o.nearest[v]
			if !o.isCopy[near] {
				t.Fatalf("%s: object %d node %d: nearest %d is not a copy (copies %v)",
					ctx, x, v, near, o.copyList)
			}
			if got := int32(r.PathLen(id, near)); got != want[v] {
				t.Fatalf("%s: object %d node %d: nearest %d at distance %d, true nearest at %d",
					ctx, x, v, near, got, want[v])
			}
			near, path := s.pathToNearest(o, id)
			if !o.isCopy[near] || int32(len(path)) != want[v] {
				t.Fatalf("%s: object %d node %d: pathToNearest (%d, %d edges), true nearest at %d",
					ctx, x, v, near, len(path), want[v])
			}
		}
	}
}

// copySetConnected reports whether the copy nodes induce a connected
// subtree.
func copySetConnected(tr *tree.Tree, copies []tree.NodeID) bool {
	if len(copies) <= 1 {
		return true
	}
	inSet := make(map[tree.NodeID]bool, len(copies))
	for _, v := range copies {
		inSet[v] = true
	}
	seen := map[tree.NodeID]bool{copies[0]: true}
	queue := []tree.NodeID{copies[0]}
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range tr.Adj(v) {
			if inSet[h.To] && !seen[h.To] {
				seen[h.To] = true
				count++
				queue = append(queue, h.To)
			}
		}
	}
	return count == len(copies)
}

// The incremental nearest-copy tables (relaxation on replicate, one BFS on
// write contraction, multi-source rebuild on adoption) must always match a
// from-scratch BFS recomputation, after arbitrary request sequences
// interleaved with copy-set adoptions.
func TestNearestTablesMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(733))
	for trial := 0; trial < 12; trial++ {
		tr := tree.Random(rng, 8+rng.Intn(40), 4, 0.4, 8)
		const objects = 4
		s := MustNew(tr, objects, Options{Threshold: 1 + rng.Intn(3)})
		reqs := RandomSequence(rng, tr, objects, 400, 0.25)
		leaves := tr.Leaves()
		for i, r := range reqs {
			s.Serve(r)
			if i%23 == 0 {
				checkNearestTables(t, tr, s, "after serve")
			}
			if i%61 == 60 {
				// Adopt a random leaf set for a random object, as the epoch
				// re-solver does, and keep serving.
				x := rng.Intn(objects)
				k := 1 + rng.Intn(min(4, len(leaves)))
				perm := rng.Perm(len(leaves))
				nodes := make([]tree.NodeID, k)
				for j := range nodes {
					nodes[j] = leaves[perm[j]]
				}
				s.AdoptCopySet(x, nodes)
				checkNearestTables(t, tr, s, "after adopt")
			}
		}
		checkNearestTables(t, tr, s, "final")
	}
}

// Adoption prices copy movement as the distance from each new copy to the
// previous copy set, charges nothing for an unchanged set, and nothing for
// a first materialization.
func TestAdoptCopySetMovement(t *testing.T) {
	tr := tree.Caterpillar(5, 1, 8, 8) // a path of leaves hanging off a bus spine
	leaves := tr.Leaves()
	s := MustNew(tr, 2, Options{Threshold: 1})

	// First adoption materializes for free.
	if moved := s.AdoptCopySet(0, []tree.NodeID{leaves[0]}); moved != 0 {
		t.Fatalf("first adoption moved %d, want 0", moved)
	}
	// Re-adopting the identical set is free and keeps read counters.
	if moved := s.AdoptCopySet(0, []tree.NodeID{leaves[0]}); moved != 0 {
		t.Fatalf("identical adoption moved %d, want 0", moved)
	}
	// Adding the far end pays its distance to the existing copy.
	far := leaves[len(leaves)-1]
	wantDist := int64(tr.Rooted0().PathLen(leaves[0], far))
	if moved := s.AdoptCopySet(0, []tree.NodeID{leaves[0], far}); moved != wantDist {
		t.Fatalf("adoption moved %d, want %d", moved, wantDist)
	}
	// Duplicates in the input are ignored.
	if moved := s.AdoptCopySet(0, []tree.NodeID{far, far, leaves[0]}); moved != 0 {
		t.Fatalf("duplicate adoption moved %d, want 0", moved)
	}
	if got := s.Copies(0); len(got) != 2 {
		t.Fatalf("copies after duplicate adoption: %v", got)
	}
	// Shrinking the set costs nothing (deletions are free), and serving
	// afterwards still works against consistent tables.
	if moved := s.AdoptCopySet(0, []tree.NodeID{far}); moved != 0 {
		t.Fatalf("shrinking adoption moved %d, want 0", moved)
	}
	if cost := s.Serve(Request{Object: 0, Node: far}); cost != 0 {
		t.Fatalf("read at the adopted copy cost %d", cost)
	}
	checkNearestTables(t, tr, s, "after shrink")
}
