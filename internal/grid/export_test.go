package grid

import "spaceodyssey/internal/geom"

// Probes the package's tests read through. Nothing outside tests needs
// them, so they live here.

// NumObjects returns the number of indexed objects.
func (g *Index) NumObjects() int { return g.total }

// CellRuns returns the number of storage runs of the cell holding p; tests
// use it to observe flush fragmentation.
func (g *Index) CellRuns(p geom.Vec) int {
	return len(g.cells[g.grid.Index(p)])
}
