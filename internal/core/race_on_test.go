//go:build race

package core

// raceEnabled gates the allocation guards: under the race detector sync.Pool
// drops items at random, so pooled paths allocate at random. It also skips
// the placement recording, which is deterministic and slow under the race
// detector.
const raceEnabled = true
