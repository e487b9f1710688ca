//go:build race

package octree

// raceEnabled gates the allocation guards: under the race detector sync.Pool
// drops items at random, so pooled paths allocate at random.
const raceEnabled = true
