package placement

import (
	"reflect"
	"testing"

	"hbn/internal/tree"
)

// arenaList builds one object's copy list in a: n copies, copy i holding
// i+1 shares, except that the first copy has nil shares and the second an
// empty non-nil share slice.
func arenaList(a *Arena, x, n int, base int64) []*Copy {
	l := a.NewCopyList(n)
	for i := 0; i < n; i++ {
		var sh []Share
		switch i {
		case 0:
		case 1:
			sh = []Share{}
		default:
			sh = a.NewShares(i + 1)
			for j := 0; j <= i; j++ {
				sh = append(sh, Share{Node: tree.NodeID(j), Reads: base + int64(i), Writes: int64(j)})
			}
		}
		l = append(l, a.NewCopy(x, tree.NodeID(i), sh))
	}
	return l
}

// deepClone copies a list's records to the heap, preserving nil-ness.
func deepClone(l []*Copy) []*Copy {
	if l == nil {
		return nil
	}
	out := make([]*Copy, len(l))
	for i, c := range l {
		cc := *c
		if c.Shares != nil {
			cc.Shares = append([]Share{}, c.Shares...)
		}
		out[i] = &cc
	}
	return out
}

// Pack must deep-copy out of the arena (packed records survive the
// arena's reuse), keep nil and empty slices apart, cap every packed slice
// at its length, overwrite the slot in place while the record count stays
// within the slack, and move to fresh storage once it shrinks past it.
func TestSlotPack(t *testing.T) {
	var a Arena
	var s Slot
	for round, n := range []int{40, 40, 38, 41, 8, 40} {
		a.Reset()
		full := arenaList(&a, 3, n, int64(round))
		var none []*Copy
		empty := []*Copy{}
		want := [][]*Copy{deepClone(full), nil, {}}
		var firstBefore *Copy
		if len(s.copies) > 0 {
			firstBefore = &s.copies[0]
		}
		s.Pack(&full, &none, &empty)

		// Scribble over the arena: the packed records must not change.
		a.Reset()
		arenaList(&a, 9, n, 1000)
		if got := [][]*Copy{full, none, empty}; !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (n=%d): packed lists differ from their source", round, n)
		}
		if none != nil || empty == nil {
			t.Fatalf("round %d: nil-ness not preserved (nil list %v, empty list %v)", round, none == nil, empty == nil)
		}
		if full[0].Shares != nil || full[1].Shares == nil {
			t.Fatalf("round %d: share nil-ness not preserved", round)
		}
		if cap(full) != len(full) {
			t.Fatalf("round %d: packed list cap %d, len %d", round, cap(full), len(full))
		}
		for i, c := range full {
			if cap(c.Shares) != len(c.Shares) {
				t.Fatalf("round %d: copy %d shares cap %d, len %d", round, i, cap(c.Shares), len(c.Shares))
			}
		}
		inPlace := firstBefore != nil && full[0] == firstBefore
		switch round {
		case 1, 2, 3: // within the slack of the previous allocation
			if !inPlace {
				t.Fatalf("round %d (n=%d): slot reallocated within its slack", round, n)
			}
		case 4, 5: // shrank past the slack, then regrew past the capacity
			if inPlace {
				t.Fatalf("round %d (n=%d): slot kept storage outside its slack", round, n)
			}
		}
	}
}
