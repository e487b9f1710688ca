package simdisk

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// lruModel is the map + pointer-list LRU the slot-indexed lruCache replaced,
// kept as the reference: exact LRU order is part of the simulated clock (a
// different victim is a different hit/miss sequence), so lruCache must agree
// with it on every answer after every operation.
type lruModel struct {
	capacity   int
	entries    map[pageKey]*modelNode
	head, tail *modelNode
}

type modelNode struct {
	key        pageKey
	prev, next *modelNode
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{capacity: capacity, entries: make(map[pageKey]*modelNode)}
}

func (c *lruModel) Contains(key pageKey) bool {
	n, ok := c.entries[key]
	if !ok {
		return false
	}
	c.moveToFront(n)
	return true
}

// Insert returns the key it evicted, if any.
func (c *lruModel) Insert(key pageKey) (victim pageKey, evicted bool) {
	if c.capacity <= 0 {
		return pageKey{}, false
	}
	if n, ok := c.entries[key]; ok {
		c.moveToFront(n)
		return pageKey{}, false
	}
	n := &modelNode{key: key}
	c.entries[key] = n
	c.pushFront(n)
	for len(c.entries) > c.capacity {
		victim, evicted = c.tail.key, true
		c.unlink(c.tail)
		delete(c.entries, victim)
	}
	return victim, evicted
}

func (c *lruModel) Remove(key pageKey) {
	if n, ok := c.entries[key]; ok {
		c.unlink(n)
		delete(c.entries, key)
	}
}

func (c *lruModel) RemoveFile(f FileID) {
	for key := range c.entries {
		if key.file == f {
			c.Remove(key)
		}
	}
}

func (c *lruModel) Clear() {
	c.entries = make(map[pageKey]*modelNode)
	c.head, c.tail = nil, nil
}

func (c *lruModel) Len() int { return len(c.entries) }

// order lists the keys from most to least recently used.
func (c *lruModel) order() []pageKey {
	var out []pageKey
	for n := c.head; n != nil; n = n.next {
		out = append(out, n.key)
	}
	return out
}

func (c *lruModel) pushFront(n *modelNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruModel) unlink(n *modelNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *lruModel) moveToFront(n *modelNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// order lists the cache's keys from most to least recently used and checks
// the structure on the way: the list is doubly linked and ends at tail, it
// holds exactly the mapped keys at their mapped slots, and every slot is
// either on it or on the free list.
func (c *lruCache) order() ([]pageKey, error) {
	var out []pageKey
	prev := noSlot
	for i := c.head; i != noSlot; i = c.nodes[i].next {
		n := c.nodes[i]
		if n.prev != prev {
			return nil, fmt.Errorf("slot %d: prev %d, reached from %d", i, n.prev, prev)
		}
		if at, ok := c.slots[n.key]; !ok || at != i {
			return nil, fmt.Errorf("slot %d: key %v maps to %d (present %v)", i, n.key, at, ok)
		}
		out = append(out, n.key)
		if len(out) > len(c.slots) {
			return nil, fmt.Errorf("list longer than map (cycle?)")
		}
		prev = i
	}
	if c.tail != prev {
		return nil, fmt.Errorf("tail %d, list ends at %d", c.tail, prev)
	}
	if len(out) != len(c.slots) {
		return nil, fmt.Errorf("list has %d nodes, map %d", len(out), len(c.slots))
	}
	unused := 0
	for i := c.free; i != noSlot; i = c.nodes[i].next {
		if unused++; unused > len(c.nodes) {
			return nil, fmt.Errorf("free list longer than the slice (cycle?)")
		}
	}
	if len(out)+unused != len(c.nodes) {
		return nil, fmt.Errorf("%d listed + %d free slots, slice holds %d", len(out), unused, len(c.nodes))
	}
	return out, nil
}

// lruOp is one step of a generated tape.
type lruOp struct {
	kind int // index into lruOpNames
	key  pageKey
	file FileID // RemoveFile's argument
}

var lruOpNames = [...]string{"Insert", "Contains", "Remove", "RemoveFile", "Clear"}

// lruTape generates cache operations over a small key space (so keys recur
// and files hold several pages), in phases that lean on one operation each:
// fill past capacity, hit and re-insert, delete whole files and refill, clear
// and refill.
func lruTape(r *rand.Rand, steps int) []lruOp {
	phases := [][len(lruOpNames)]int{ // weights, in lruOpNames' order
		{8, 1, 0, 0, 0},
		{3, 6, 1, 0, 0},
		{6, 2, 2, 1, 0},
		{6, 2, 1, 0, 1},
	}
	tape := make([]lruOp, 0, steps)
	for len(tape) < steps {
		weights := phases[r.Intn(len(phases))]
		total := 0
		for _, w := range weights {
			total += w
		}
		for n := 20 + r.Intn(200); n > 0 && len(tape) < steps; n-- {
			pick, kind := r.Intn(total), 0
			for pick >= weights[kind] {
				pick -= weights[kind]
				kind++
			}
			tape = append(tape, lruOp{
				kind: kind,
				key:  pageKey{FileID(1 + r.Intn(4)), int64(r.Intn(48))},
				file: FileID(1 + r.Intn(4)),
			})
		}
	}
	return tape
}

// TestLRUMatchesModel replays generated tapes on lruCache and on the model
// side by side: the same Contains answers, the same Len, the same eviction
// victim at every step — and, stronger than any of them, the same recency
// order after every step, which is what decides every later victim.
func TestLRUMatchesModel(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 7, 128} {
		for seed := int64(1); seed <= 6; seed++ {
			r := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			got, want := newLRUCache(capacity), newLRUModel(capacity)
			var before []pageKey // got's keys before the step
			for step, op := range lruTape(r, 4000) {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("cap %d seed %d step %d %s(%v, %d): %s", capacity, seed, step,
						lruOpNames[op.kind], op.key, op.file, fmt.Sprintf(format, args...))
				}
				var victim pageKey
				var evicted bool
				switch op.kind {
				case 0:
					got.Insert(op.key)
					victim, evicted = want.Insert(op.key)
				case 1:
					if g, w := got.Contains(op.key), want.Contains(op.key); g != w {
						fail("answered %v, model %v", g, w)
					}
				case 2:
					got.Remove(op.key)
					want.Remove(op.key)
				case 3:
					got.RemoveFile(op.file)
					want.RemoveFile(op.file)
				case 4:
					got.Clear()
					want.Clear()
				}
				if got.Len() != want.Len() {
					fail("Len %d, model %d", got.Len(), want.Len())
				}
				order, err := got.order()
				if err != nil {
					fail("%v", err)
				}
				if op.kind == 0 {
					// What an Insert evicted is what the cache held before
					// and does not now.
					var gone []pageKey
					for _, k := range before {
						if _, ok := got.slots[k]; !ok {
							gone = append(gone, k)
						}
					}
					if len(gone) > 1 || evicted != (len(gone) == 1) || (evicted && gone[0] != victim) {
						fail("evicted %v, model evicted %v (%v)", gone, victim, evicted)
					}
				}
				if w := want.order(); !slices.Equal(order, w) {
					fail("order %v, model %v", order, w)
				}
				before = order
			}
		}
	}
}

// TestLRURemoveFileReturnsSlots deletes a file out of a full cache and refills
// it: the freed slots are reused (the slice does not grow past the capacity),
// and the refilled cache evicts in the model's order.
func TestLRURemoveFileReturnsSlots(t *testing.T) {
	const capacity = 16
	got, want := newLRUCache(capacity), newLRUModel(capacity)
	both := func(key pageKey) {
		got.Insert(key)
		want.Insert(key)
	}
	for p := 0; p < capacity; p++ {
		both(pageKey{FileID(1 + p%2), int64(p)})
	}
	for round := 0; round < 3; round++ {
		got.RemoveFile(1)
		want.RemoveFile(1)
		if got.Len() != capacity/2 {
			t.Fatalf("round %d: %d pages left after RemoveFile, want %d", round, got.Len(), capacity/2)
		}
		for p := 0; p < capacity; p++ { // refill, and overflow by half
			both(pageKey{1, int64(100*round + p)})
		}
		if len(got.nodes) > capacity {
			t.Fatalf("round %d: %d slots for capacity %d — RemoveFile's slots were not reused", round, len(got.nodes), capacity)
		}
		order, err := got.order()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if w := want.order(); !slices.Equal(order, w) {
			t.Fatalf("round %d: order %v, model %v", round, order, w)
		}
		for p := 0; p < capacity/2; p++ { // file 2 comes back for the next round
			both(pageKey{2, int64(100*round + p)})
		}
	}
}
