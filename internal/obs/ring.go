package obs

import (
	"sync/atomic"
	"time"
)

// Kind tags a flight-recorder event.
type Kind uint8

const (
	EvNone     Kind = iota
	EvEpoch         // epoch pass: A=trigger, B=objects drifted, C=adoption moves
	EvDrift         // drift trigger fired: A=trigger magnitude (milli-units), B=threshold
	EvReconfig      // reconfiguration phase: A=phase, B=stall/moved detail, C=dropped cost
	EvSnapshot      // snapshot cut: A=sequence, B=bytes, C=cut stall ns
	EvRecovery      // crash-recovery restore: A=sequence, B=1 if fallback image was used
	EvShed          // admission shed burst: A=sheds so far, B=queue length, C=retry-after ns
	EvHandoff       // live handoff phase: A=phase, B=detail
)

var kindNames = [...]string{
	"none", "epoch", "drift", "reconfig", "snapshot", "recovery", "shed", "handoff",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Reconfiguration / handoff phase codes carried in an event's A field.
const (
	PhaseBegin  = 1
	PhaseShard  = 2 // one shard swapped; Shard holds the index
	PhaseCommit = 3
)

// Event is one fixed-size flight-recorder record.
type Event struct {
	Seq    uint64 // global sequence number, dense from 0
	TimeNs int64  // wall clock, unix nanoseconds
	Kind   Kind
	Shard  int32 // shard index, or -1 for cluster-wide events
	A      int64
	B      int64
	C      int64
}

// rslot is one ring slot. All fields are atomics so concurrent access
// is race-clean; ver implements a per-slot seqlock: it holds 2*seq+1
// while the writer owning sequence number seq is filling the slot, and
// 2*seq+2 once the record is complete. Readers accept a slot only if
// ver reads as the same "complete" value before and after copying the
// fields, so mid-write (torn) slots are skipped, never exposed.
type rslot struct {
	ver  atomic.Uint64
	time atomic.Int64
	meta atomic.Uint64 // Kind<<32 | uint32(Shard)
	a    atomic.Int64
	b    atomic.Int64
	c    atomic.Int64
}

// Recorder is a fixed-size lock-free flight recorder. Writers claim a
// slot with one atomic fetch-add and never block; the ring keeps the
// most recent cap events. Recording is allocation-free.
type Recorder struct {
	mask uint64
	next atomic.Uint64
	slot []rslot
}

// NewRecorder returns a recorder holding the most recent capacity
// events (rounded up to a power of two, minimum 16).
func NewRecorder(capacity int) *Recorder {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Recorder{mask: uint64(n - 1), slot: make([]rslot, n)}
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int { return len(r.slot) }

// Recorded returns the total number of events ever recorded.
func (r *Recorder) Recorded() uint64 { return r.next.Load() }

// Record appends one event, stamped with the current wall clock.
func (r *Recorder) Record(k Kind, shard int32, a, b, c int64) {
	r.RecordAt(time.Now().UnixNano(), k, shard, a, b, c)
}

// RecordAt appends one event with an explicit timestamp.
func (r *Recorder) RecordAt(timeNs int64, k Kind, shard int32, a, b, c int64) {
	seq := r.next.Add(1) - 1
	s := &r.slot[seq&r.mask]
	s.ver.Store(2*seq + 1) // mark mid-write; readers of the old record bail
	s.time.Store(timeNs)
	s.meta.Store(uint64(k)<<32 | uint64(uint32(shard)))
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.ver.Store(2*seq + 2) // publish
}

// Events appends the events still resident in the ring to dst, oldest
// first, and returns the extended slice. Slots that are mid-write, or
// that were overwritten while being read, are skipped.
func (r *Recorder) Events(dst []Event) []Event {
	next := r.next.Load()
	start := uint64(0)
	if n := uint64(len(r.slot)); next > n {
		start = next - n
	}
	for seq := start; seq < next; seq++ {
		s := &r.slot[seq&r.mask]
		v := s.ver.Load()
		if v != 2*seq+2 {
			continue // torn: overwritten or mid-write
		}
		ev := Event{
			Seq:    seq,
			TimeNs: s.time.Load(),
			A:      s.a.Load(),
			B:      s.b.Load(),
			C:      s.c.Load(),
		}
		meta := s.meta.Load()
		ev.Kind = Kind(meta >> 32)
		ev.Shard = int32(uint32(meta))
		if s.ver.Load() != v {
			continue // writer lapped us mid-copy
		}
		dst = append(dst, ev)
	}
	return dst
}
