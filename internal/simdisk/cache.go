package simdisk

// pageKey identifies one page on the device.
type pageKey struct {
	file FileID
	page int64
}

// lruCache is a fixed-capacity LRU set of page keys emulating the OS page
// cache. It stores only presence, not data — the device keeps page contents
// in its file map; the cache decides whether a read pays disk cost or the
// (near-free) cache-hit cost.
//
// The recency list lives in one slice, linked by slot number, and the map
// goes from key to slot: a full cache reuses its victim's slot, Remove feeds
// a free list and Clear keeps both the map and the slice, so after warm-up
// no operation allocates — the paper's methodology clears the cache before
// every query, and every page read touches it.
type lruCache struct {
	capacity int // in pages; <= 0 disables caching
	slots    map[pageKey]int32
	nodes    []lruNode
	head     int32 // most recently used; noSlot when empty
	tail     int32 // least recently used; noSlot when empty
	free     int32 // first unused slot below len(nodes), chained through next
}

type lruNode struct {
	key        pageKey
	prev, next int32
}

// noSlot ends the recency list and the free list.
const noSlot int32 = -1

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		slots:    make(map[pageKey]int32),
		head:     noSlot,
		tail:     noSlot,
		free:     noSlot,
	}
}

// Contains reports whether key is cached and, if so, marks it most recently
// used.
func (c *lruCache) Contains(key pageKey) bool {
	i, ok := c.slots[key]
	if !ok {
		return false
	}
	c.moveToFront(i)
	return true
}

// Insert adds key as the most recently used entry, evicting the least
// recently used entry if the cache is full.
func (c *lruCache) Insert(key pageKey) {
	if c.capacity <= 0 {
		return
	}
	if i, ok := c.slots[key]; ok {
		c.moveToFront(i)
		return
	}
	var i int32
	switch {
	case len(c.slots) >= c.capacity:
		// Full: the victim's slot is the new entry's.
		i = c.tail
		c.unlink(i)
		delete(c.slots, c.nodes[i].key)
	case c.free != noSlot:
		i = c.free
		c.free = c.nodes[i].next
	default:
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, lruNode{})
	}
	c.nodes[i].key = key
	c.slots[key] = i
	c.pushFront(i)
}

// Remove drops key from the cache if present.
func (c *lruCache) Remove(key pageKey) {
	i, ok := c.slots[key]
	if !ok {
		return
	}
	c.unlink(i)
	delete(c.slots, key)
	c.nodes[i].next = c.free
	c.free = i
}

// RemoveFile drops every cached page belonging to file f. It walks the whole
// map; files are deleted rarely (a merge file under the space budget).
func (c *lruCache) RemoveFile(f FileID) {
	for key := range c.slots {
		if key.file == f {
			c.Remove(key)
		}
	}
}

// Clear empties the cache (the paper's cache-drop before each query).
func (c *lruCache) Clear() {
	clear(c.slots)
	c.nodes = c.nodes[:0]
	c.head, c.tail, c.free = noSlot, noSlot, noSlot
}

func (c *lruCache) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = noSlot, c.head
	if c.head != noSlot {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == noSlot {
		c.tail = i
	}
}

func (c *lruCache) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != noSlot {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != noSlot {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *lruCache) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}
