package cluster

import (
	"sync"
	"testing"

	"repro/internal/eq"
	"repro/internal/graph"
)

func tm(n int, a string) eq.Term { return eq.Term{Node: graph.NodeID(n), Attr: a} }

func TestLogAppendRead(t *testing.T) {
	l := NewLog()
	if l.Len() != 0 || l.Appends() != 0 {
		t.Fatal("fresh log not empty")
	}
	l.Append(eq.Delta{{Kind: eq.OpAssign, T: tm(0, "A"), C: "1"}})
	l.Append(nil) // empty deltas are not broadcasts
	l.Append(eq.Delta{{Kind: eq.OpMerge, T: tm(0, "A"), U: tm(1, "B")}})
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if l.Appends() != 2 {
		t.Fatalf("Appends = %d, want 2", l.Appends())
	}
	tail, cur := l.ReadFrom(0)
	if len(tail) != 2 || cur != 2 {
		t.Fatalf("ReadFrom(0) = %d ops, cursor %d", len(tail), cur)
	}
	tail, cur = l.ReadFrom(2)
	if tail != nil || cur != 2 {
		t.Fatal("ReadFrom at end should be empty")
	}
	// Partial read.
	tail, _ = l.ReadFrom(1)
	if len(tail) != 1 || tail[0].Kind != eq.OpMerge {
		t.Fatalf("partial read wrong: %+v", tail)
	}
}

func TestLogConcurrentAppendersConverge(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Append(eq.Delta{{Kind: eq.OpAssign, T: tm(w, "A"), C: "1"}})
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 400 {
		t.Fatalf("lost appends: %d", l.Len())
	}
	// Two replicas reading the full log agree.
	a, b := eq.New(), eq.New()
	tail, _ := l.ReadFrom(0)
	a.Apply(tail)
	b.Apply(tail)
	if a.Classes() != b.Classes() {
		t.Fatal("replicas diverged on identical log")
	}
}

// TestLogReadFromIsAStableView: ReadFrom hands out the log's own storage, so
// what a reader holds must survive later appends — also the ones that move
// the log — and appending to the view must not reach the log.
func TestLogReadFromIsAStableView(t *testing.T) {
	l := NewLog()
	l.Append(eq.Delta{{Kind: eq.OpAssign, T: tm(0, "A"), C: "first"}})
	view, cur := l.ReadFrom(0)
	if len(view) != 1 || cap(view) != 1 || cur != 1 {
		t.Fatalf("view len %d cap %d cursor %d, want 1 1 1", len(view), cap(view), cur)
	}
	_ = append(view, eq.Op{C: "stray"})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // readers run while writers append
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			l.Append(eq.Delta{{Kind: eq.OpAssign, T: tm(i, "A"), C: "later"}})
		}
	}()
	for i := 0; i < 1000; i++ {
		if tail, _ := l.ReadFrom(0); tail[0].C != "first" {
			t.Fatalf("log head changed to %q", tail[0].C)
		}
	}
	wg.Wait()
	if view[0].C != "first" {
		t.Fatalf("an early view changed to %q", view[0].C)
	}
	if tail, _ := l.ReadFrom(1); len(tail) != 1000 || tail[0].C != "later" {
		t.Fatalf("appending to a view reached the log: %d ops, first %q", len(tail), tail[0].C)
	}
}

func TestQueueOrdering(t *testing.T) {
	q := NewQueue[string]()
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	q.Push(1, "a2") // equal rank: stable after "a"
	var got []string
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []string{"a", "a2", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestQueuePushFront(t *testing.T) {
	q := NewQueue[string]()
	q.Push(1, "normal")
	q.PushFront("s1", "s2")
	q.PushFront("s3")
	// s3 was pushed front most recently → before s1, s2; all before normal.
	var got []string
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 4 || got[0] != "s3" || got[3] != "normal" {
		t.Fatalf("front ordering wrong: %v", got)
	}
	// s1 before s2 (same PushFront call preserves order).
	if got[1] != "s1" || got[2] != "s2" {
		t.Fatalf("intra-batch order wrong: %v", got)
	}
}

func TestQueueEmptyPop(t *testing.T) {
	q := NewQueue[int]()
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	if q.Len() != 0 {
		t.Fatal("empty queue has nonzero length")
	}
}

func TestDequeEnds(t *testing.T) {
	d := NewDeque[int]()
	if _, ok := d.PopFront(); ok {
		t.Fatal("pop from empty deque succeeded")
	}
	if _, ok := d.PopBack(); ok {
		t.Fatal("pop back from empty deque succeeded")
	}
	d.PushBack(1)
	d.PushBack(2)
	d.PushFront(0)
	// Front: 0 1 2. Owner pops lowest, thief steals highest.
	if v, _ := d.PopFront(); v != 0 {
		t.Fatalf("PopFront = %d, want 0", v)
	}
	if v, _ := d.PopBack(); v != 2 {
		t.Fatalf("PopBack = %d, want 2", v)
	}
	if v, _ := d.PopFront(); v != 1 {
		t.Fatalf("PopFront = %d, want 1", v)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d, want 0", d.Len())
	}
}

// TestDequePushFrontBatchOrder pins the split-batch contract: a batch
// pushed to the front pops in batch order, ahead of older work.
func TestDequePushFrontBatchOrder(t *testing.T) {
	d := NewDeque[string]()
	d.PushBack("old")
	d.PushFront("s1", "s2", "s3")
	var got []string
	for {
		v, ok := d.PopFront()
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []string{"s1", "s2", "s3", "old"}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
}

// TestDequeGrowth forces several ring-buffer growth cycles with interleaved
// pops at both ends, then checks no element was lost or reordered.
func TestDequeGrowth(t *testing.T) {
	d := NewDeque[int]()
	next, popped := 0, 0
	var front, back []int
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			d.PushBack(next)
			next++
		}
		if v, ok := d.PopFront(); ok {
			front = append(front, v)
			popped++
		}
		if v, ok := d.PopBack(); ok {
			back = append(back, v)
			popped++
		}
	}
	if d.Len() != next-popped {
		t.Fatalf("Len = %d, want %d", d.Len(), next-popped)
	}
	for i := 1; i < len(front); i++ {
		if front[i] <= front[i-1] {
			t.Fatalf("front pops not ascending: %v", front)
		}
	}
	seen := make(map[int]bool)
	for _, v := range append(front, back...) {
		if seen[v] {
			t.Fatalf("element %d popped twice", v)
		}
		seen[v] = true
	}
	for {
		v, ok := d.PopFront()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("element %d popped twice", v)
		}
		seen[v] = true
	}
	if len(seen) != next {
		t.Fatalf("lost elements: saw %d of %d", len(seen), next)
	}
}

// TestDequeConcurrentSteal hammers one owner (front) and several thieves
// (back) and checks conservation: every pushed element is popped exactly
// once across all consumers.
func TestDequeConcurrentSteal(t *testing.T) {
	d := NewDeque[int]()
	const n = 2000
	var mu sync.Mutex
	seen := make(map[int]bool, n)
	record := func(v int) {
		mu.Lock()
		if seen[v] {
			t.Errorf("element %d popped twice", v)
		}
		seen[v] = true
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // owner: pushes and pops at the front
		defer wg.Done()
		for i := 0; i < n; i++ {
			d.PushFront(i)
			if i%3 == 0 {
				if v, ok := d.PopFront(); ok {
					record(v)
				}
			}
		}
	}()
	for th := 0; th < 3; th++ {
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if v, ok := d.PopBack(); ok {
					record(v)
				}
			}
		}()
	}
	wg.Wait()
	for {
		v, ok := d.PopFront()
		if !ok {
			break
		}
		record(v)
	}
	if len(seen) != n {
		t.Fatalf("conservation broken: popped %d of %d", len(seen), n)
	}
}
