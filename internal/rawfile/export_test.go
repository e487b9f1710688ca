package rawfile

import "spaceodyssey/internal/geom"

// Probes the package's tests read through. Nothing outside tests needs
// them, so they live here.

// Bounds returns the union of all object boxes (dataset metadata).
func (r *Raw) Bounds() geom.Box { return r.bounds }
