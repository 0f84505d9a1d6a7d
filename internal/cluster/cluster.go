// Package cluster provides the simulated distributed runtime underneath
// ParSat and ParImp (Section V-B): per-worker work deques for p workers and
// an asynchronous reliable broadcast of monotone Eq deltas.
//
// Substitution note (see DESIGN.md): the paper deploys on a 20-machine
// cluster; here workers are goroutines and the broadcast is a shared
// append-only operation log that every worker applies from its own cursor.
// The paper's coordinator queue W is realised as one Deque per worker,
// seeded by striping the rank-ordered units, plus stealing (core's worker
// pool); split sub-units go to the front of the splitter's own deque.
// This preserves the coordination structure the paper evaluates — dynamic
// workload assignment, straggler splitting, early-termination flags, and
// asynchronous monotone state exchange — while remaining a single process.
package cluster

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/eq"
)

// Log is the asynchronous broadcast channel: an append-only, totally
// ordered log of Eq operations. A worker broadcasts by appending its local
// delta; every other worker applies the log tail from its own cursor at its
// own pace. Because Eq is monotone and ops are ground, applying any prefix
// interleaved with local work converges (see eq's confluence property).
type Log struct {
	mu  sync.Mutex
	ops []eq.Op
	// length mirrors len(ops) so workers can poll for news without taking
	// the mutex (they poll once per match — the hot path).
	length atomic.Int64
	// appends counts Append calls (broadcast messages), reported by the
	// harness as a communication stat.
	appends int
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Append publishes a delta; empty deltas are ignored. It returns the new
// log length.
func (l *Log) Append(d eq.Delta) int {
	if len(d) == 0 {
		return l.Len()
	}
	l.mu.Lock()
	if len(l.ops)+len(d) > cap(l.ops) {
		// The log only grows, for the whole run: double it, where append alone
		// would grow it by a quarter at a time and copy several times its
		// final size on the way there.
		l.ops = slices.Grow(l.ops, max(len(d), len(l.ops)))
	}
	l.ops = append(l.ops, d...)
	l.appends++
	n := len(l.ops)
	l.length.Store(int64(n))
	l.mu.Unlock()
	return n
}

// Len returns the current log length without locking. Workers poll this on
// every match to decide whether to catch up.
func (l *Log) Len() int { return int(l.length.Load()) }

// ReadFrom returns the ops in [cursor, len) and the new cursor. The result
// is a read-only view of the log, not a copy: the log is append-only, so the
// ops it covers never change, and its capacity is clipped so that appending
// to it cannot reach the log's own storage. Callers must not write to it.
func (l *Log) ReadFrom(cursor int) (eq.Delta, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.ops)
	if cursor >= n {
		return nil, cursor
	}
	return l.ops[cursor:n:n], n
}

// Appends returns the number of broadcast messages published.
func (l *Log) Appends() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Queue is the paper's coordinator queue W taken literally: a binary
// min-heap on (rank, insertion sequence) — stable FIFO within a rank —
// with PushFront used for split sub-units ("add Li to the front of W").
// It is not synchronized. The engines schedule from Deques (core's worker
// pool), not from this; the only caller is the benchmark module's
// cluster.queue_pushpop_ns probe, and the type goes when that probe does.
type Queue[T any] struct {
	items []queueItem[T]
	seq   uint64
	// frontRank decreases on every PushFront call so later split batches
	// land before earlier ones, and all land before normally ranked units.
	frontRank int
}

type queueItem[T any] struct {
	rank int
	seq  uint64
	v    T
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

func (q *Queue[T]) less(i, j int) bool {
	if q.items[i].rank != q.items[j].rank {
		return q.items[i].rank < q.items[j].rank
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

// Push inserts an item with the given rank (FIFO for equal ranks).
func (q *Queue[T]) Push(rank int, v T) {
	q.items = append(q.items, queueItem[T]{rank: rank, seq: q.seq, v: v})
	q.seq++
	q.up(len(q.items) - 1)
}

// PushFront inserts items ahead of everything currently queued, preserving
// their order within the batch.
func (q *Queue[T]) PushFront(vs ...T) {
	q.frontRank--
	for _, v := range vs {
		q.Push(q.frontRank, v)
	}
}

// Pop removes and returns the lowest-ranked item.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0].v
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = queueItem[T]{} // release references
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return v, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Deque is a synchronized double-ended work queue, one per worker of core's
// worker pool. The owning worker pushes split sub-units to the
// front and pops from the front (depth-first locality: a split branch reuses
// the caches its parent just warmed), while idle workers steal from the
// back, taking the work the owner would reach last. A mutex per deque is
// deliberate: work units cost well over a microsecond each, so lock-free
// Chase–Lev buys nothing here while costing memory-model subtlety.
type Deque[T any] struct {
	mu    sync.Mutex
	buf   []T
	head  int // index of the front item
	count int
}

// NewDeque returns an empty deque.
func NewDeque[T any]() *Deque[T] { return &Deque[T]{} }

// grow doubles the ring buffer; callers hold mu.
func (d *Deque[T]) grow() {
	n := len(d.buf) * 2
	if n == 0 {
		n = 8
	}
	buf := make([]T, n)
	for i := 0; i < d.count; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = buf
	d.head = 0
}

// PushFront inserts items at the front, preserving their order within the
// batch (vs[0] is popped first).
func (d *Deque[T]) PushFront(vs ...T) {
	d.mu.Lock()
	for i := len(vs) - 1; i >= 0; i-- {
		if d.count == len(d.buf) {
			d.grow()
		}
		d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
		d.buf[d.head] = vs[i]
		d.count++
	}
	d.mu.Unlock()
}

// PushBack appends an item at the back.
func (d *Deque[T]) PushBack(v T) {
	d.mu.Lock()
	if d.count == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.count)%len(d.buf)] = v
	d.count++
	d.mu.Unlock()
}

// PopFront removes and returns the front item (the owner's end).
func (d *Deque[T]) PopFront() (T, bool) {
	var zero T
	d.mu.Lock()
	if d.count == 0 {
		d.mu.Unlock()
		return zero, false
	}
	v := d.buf[d.head]
	d.buf[d.head] = zero // release references
	d.head = (d.head + 1) % len(d.buf)
	d.count--
	d.mu.Unlock()
	return v, true
}

// PopBack removes and returns the back item (the thieves' end).
func (d *Deque[T]) PopBack() (T, bool) {
	var zero T
	d.mu.Lock()
	if d.count == 0 {
		d.mu.Unlock()
		return zero, false
	}
	i := (d.head + d.count - 1) % len(d.buf)
	v := d.buf[i]
	d.buf[i] = zero
	d.count--
	d.mu.Unlock()
	return v, true
}

// Len returns the number of queued items.
func (d *Deque[T]) Len() int {
	d.mu.Lock()
	n := d.count
	d.mu.Unlock()
	return n
}
