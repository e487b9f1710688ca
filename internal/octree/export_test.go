package octree

// Probes the package's tests read through. Nothing outside tests needs
// them, so they live here.

// NumObjects returns the number of indexed objects (0 before build): the
// objects of the raw file the tree is built over.
func (t *Tree) NumObjects() int {
	if !t.Built() {
		return 0
	}
	return t.raw.NumObjects()
}
