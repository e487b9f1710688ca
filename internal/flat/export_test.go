package flat

// Probes the package's tests read through. Nothing outside tests needs
// them, so they live here.

// NumObjects returns the number of indexed objects.
func (idx *Index) NumObjects() int { return idx.numObj }

// NumLeaves returns the number of dense leaf pages.
func (idx *Index) NumLeaves() int { return len(idx.leaves) }
