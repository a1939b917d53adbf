package placement

import "hbn/internal/tree"

// Arena bump-allocates the bulk objects of a pipeline pass — Copy
// records, Share slices and per-object copy lists — from slabs that are
// recycled wholesale by Reset. The reusable solver resets one arena per
// worker at the start of every object, builds that object's records in it
// and packs the survivors into the object's Slot, so a warm arena is only
// as large as the biggest single object and serves every object without
// touching the heap. The mapping stage keeps whole-run arenas instead.
//
// Growth strategy: when a slab is exhausted mid-run a larger replacement is
// allocated and the old slab is abandoned; records already handed out keep
// the abandoned slab alive, so outstanding pointers stay valid. After Reset
// the (largest) slab is reused from the start, so steady-state runs
// allocate nothing.
//
// Everything an arena hands out is invalidated by the next Reset: callers
// own the memory only until then. A nil *Arena is valid and falls back to
// ordinary heap allocation, so code paths can be written once and callers
// opt in to reuse.
type Arena struct {
	copies []Copy
	shares []Share
	lists  []*Copy
	nc     int
	ns     int
	nl     int
}

// Reset recycles every slab. All memory previously handed out becomes
// invalid (it will be overwritten by subsequent allocations).
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	// Zero the used part of the list slab: NewCopyList hands out
	// zero-length slices that are grown with append, and stale pointers
	// from the previous run must not keep dead placements reachable (nor be
	// observable through re-sliced spare capacity). Lists are capped at
	// their requested capacity, so nothing past a.nl was written; clearing
	// only that prefix keeps a per-object Reset proportional to the object.
	clear(a.lists[:a.nl])
	a.nc, a.ns, a.nl = 0, 0, 0
}

// NewCopy returns a Copy initialized to the given fields.
func (a *Arena) NewCopy(object int, node tree.NodeID, shares []Share) *Copy {
	if a == nil {
		return &Copy{Object: object, Node: node, Shares: shares}
	}
	if a.nc == len(a.copies) {
		n := 2 * len(a.copies)
		if n < 512 {
			n = 512
		}
		a.copies = make([]Copy, n)
		a.nc = 0
	}
	c := &a.copies[a.nc]
	a.nc++
	c.Object, c.Node, c.Shares = object, node, shares
	return c
}

// NewShares returns an empty Share slice with the given capacity. Appends
// beyond the capacity fall back to the heap (and detach from the arena), so
// callers should size exactly where they can.
func (a *Arena) NewShares(capacity int) []Share {
	if capacity <= 0 {
		return nil
	}
	if a == nil {
		return make([]Share, 0, capacity)
	}
	if a.ns+capacity > len(a.shares) {
		n := 2 * len(a.shares)
		if n < 1024 {
			n = 1024
		}
		if n < capacity {
			n = capacity
		}
		a.shares = make([]Share, n)
		a.ns = 0
	}
	s := a.shares[a.ns : a.ns : a.ns+capacity]
	a.ns += capacity
	return s
}

// NewCopyList returns an empty []*Copy with the given capacity, for
// per-object copy lists.
func (a *Arena) NewCopyList(capacity int) []*Copy {
	if capacity <= 0 {
		return nil
	}
	if a == nil {
		return make([]*Copy, 0, capacity)
	}
	if a.nl+capacity > len(a.lists) {
		n := 2 * len(a.lists)
		if n < 512 {
			n = 512
		}
		if n < capacity {
			n = capacity
		}
		a.lists = make([]*Copy, n)
		a.nl = 0
	}
	l := a.lists[a.nl : a.nl : a.nl+capacity]
	a.nl += capacity
	return l
}

// Slot is one object's reusable record storage. Pack deep-copies the
// object's copy lists out of the scratch Arena they were built in into
// three backing arrays owned by the slot (Copy records, Share entries and
// list pointers), so re-solving the object overwrites its previous
// records in place instead of allocating new ones.
//
// Each array is allocated with slotSlack headroom over its record count
// and kept while the count stays within it: up to the capacity, and down
// to where the unused tail exceeds twice the slack. Beyond that it is
// replaced by a freshly sized one. The margin is small on purpose: every
// slot's slack is live memory, and a solver holds two slots per object.
type Slot struct {
	copies []Copy
	shares []Share
	lists  []*Copy
}

// slotSlack is the headroom a slot array of n records is allocated with.
func slotSlack(n int) int { return n/16 + 1 }

// refit returns buf resliced to n records while it fits them with at most
// twice slotSlack(n) to spare, otherwise a new zeroed array with slotSlack
// headroom. A reused array's tail is cleared so that stale pointers keep
// nothing alive.
func refit[T any](buf []T, n int) []T {
	if c := cap(buf); n <= c && c-n <= 2*slotSlack(n) {
		buf = buf[:c]
		clear(buf[n:])
		return buf[:n]
	}
	return make([]T, n, n+slotSlack(n))
}

// Pack deep-copies the copy lists *lists point to into the slot, in
// order, and re-points each at its packed copy. Whatever the slot held
// before is overwritten, so records from an earlier Pack must no longer be
// in use. Packed lists and share slices have capacity equal to their
// length (an append reallocates instead of overwriting a neighbour); nil
// and empty slices keep their nil-ness, so a packed placement is
// reflect.DeepEqual to its source.
func (s *Slot) Pack(lists ...*[]*Copy) {
	nc, ns := 0, 0
	for _, l := range lists {
		nc += len(*l)
		for _, c := range *l {
			ns += len(c.Shares)
		}
	}
	s.copies = refit(s.copies, nc)
	s.shares = refit(s.shares, ns)
	s.lists = refit(s.lists, nc)
	nc, ns = 0, 0
	for _, l := range lists {
		src := *l
		if len(src) == 0 {
			if src != nil {
				*l = []*Copy{}
			}
			continue
		}
		dst := s.lists[nc : nc+len(src) : nc+len(src)]
		for i, c := range src {
			var sh []Share
			if k := len(c.Shares); k > 0 {
				sh = s.shares[ns : ns+k : ns+k]
				copy(sh, c.Shares)
				ns += k
			} else if c.Shares != nil {
				sh = []Share{}
			}
			p := &s.copies[nc+i]
			p.Object, p.Node, p.Shares = c.Object, c.Node, sh
			dst[i] = p
		}
		nc += len(src)
		*l = dst
	}
}
