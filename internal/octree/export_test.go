package octree

// Probes the package's tests read through. Nothing outside tests needs
// them, so they live here.

// NumObjects returns the number of indexed objects (0 before build).
func (t *Tree) NumObjects() int { return t.numObjects }
