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
type lruCache struct {
	capacity int // in pages; <= 0 disables caching
	entries  map[pageKey]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
}

type lruNode struct {
	key        pageKey
	prev, next *lruNode
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{capacity: capacity, entries: make(map[pageKey]*lruNode)}
}

// Contains reports whether key is cached and, if so, marks it most recently
// used.
func (c *lruCache) Contains(key pageKey) bool {
	n, ok := c.entries[key]
	if !ok {
		return false
	}
	c.moveToFront(n)
	return true
}

// Insert adds key as the most recently used entry, evicting the least
// recently used entry if the cache is full.
func (c *lruCache) Insert(key pageKey) {
	if c.capacity <= 0 {
		return
	}
	if n, ok := c.entries[key]; ok {
		c.moveToFront(n)
		return
	}
	n := &lruNode{key: key}
	c.entries[key] = n
	c.pushFront(n)
	for len(c.entries) > c.capacity {
		c.evictTail()
	}
}

// Remove drops key from the cache if present.
func (c *lruCache) Remove(key pageKey) {
	if n, ok := c.entries[key]; ok {
		c.unlink(n)
		delete(c.entries, key)
	}
}

// RemoveFile drops every cached page belonging to file f.
func (c *lruCache) RemoveFile(f FileID) {
	for key := range c.entries {
		if key.file == f {
			c.Remove(key)
		}
	}
}

// Clear empties the cache (the paper's cache-drop before each query).
func (c *lruCache) Clear() {
	c.entries = make(map[pageKey]*lruNode)
	c.head, c.tail = nil, nil
}

// Len returns the number of cached pages.
func (c *lruCache) Len() int { return len(c.entries) }

func (c *lruCache) pushFront(n *lruNode) {
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

func (c *lruCache) unlink(n *lruNode) {
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

func (c *lruCache) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *lruCache) evictTail() {
	if c.tail == nil {
		return
	}
	victim := c.tail
	c.unlink(victim)
	delete(c.entries, victim.key)
}
