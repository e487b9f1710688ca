package geom

import (
	"fmt"
	"math"
)

// Box is a closed axis-aligned box [Min, Max] in 3D space. A Box is valid
// when Min.LessEq(Max); the zero Box is the degenerate point at the origin.
type Box struct {
	Min, Max Vec
}

// NewBox returns the box spanning [min, max]. It panics if min > max in any
// dimension, which always indicates a programming error in callers.
func NewBox(min, max Vec) Box {
	if !min.LessEq(max) {
		panic(fmt.Sprintf("geom: invalid box min=%v max=%v", min, max))
	}
	return Box{Min: min, Max: max}
}

// BoxFromCenter returns the box centered at c with the given half-extent in
// each dimension. Negative half-extents are invalid.
func BoxFromCenter(c, halfExtent Vec) Box {
	return NewBox(c.Sub(halfExtent), c.Add(halfExtent))
}

// Cube returns the axis-aligned cube centered at c with side length side.
func Cube(c Vec, side float64) Box {
	return BoxFromCenter(c, Splat(side/2))
}

// UnitBox returns the box [0,1]^3.
func UnitBox() Box { return Box{Min: Vec{}, Max: Splat(1)} }

// Valid reports whether the box has Min <= Max in every dimension and all
// finite coordinates.
func (b Box) Valid() bool {
	return b.Min.Finite() && b.Max.Finite() && b.Min.LessEq(b.Max)
}

// Center returns the box's center point.
func (b Box) Center() Vec { return b.Min.Add(b.Max).Mul(0.5) }

// Size returns the box's edge lengths.
func (b Box) Size() Vec { return b.Max.Sub(b.Min) }

// HalfExtent returns half the box's edge lengths.
func (b Box) HalfExtent() Vec { return b.Size().Mul(0.5) }

// Volume returns the box's volume.
func (b Box) Volume() float64 {
	s := b.Size()
	return s.X * s.Y * s.Z
}

// Intersects reports whether b and o share at least one point (closed-box
// semantics: touching faces intersect).
func (b Box) Intersects(o Box) bool {
	return b.Min.X <= o.Max.X && o.Min.X <= b.Max.X &&
		b.Min.Y <= o.Max.Y && o.Min.Y <= b.Max.Y &&
		b.Min.Z <= o.Max.Z && o.Min.Z <= b.Max.Z
}

// Contains reports whether o lies entirely inside b.
func (b Box) Contains(o Box) bool {
	return b.Min.LessEq(o.Min) && o.Max.LessEq(b.Max)
}

// ContainsPoint reports whether point p lies inside b (closed).
func (b Box) ContainsPoint(p Vec) bool {
	return b.Min.LessEq(p) && p.LessEq(b.Max)
}

// ContainsPointHalfOpen reports whether p lies in the half-open box
// [Min, Max). Space-oriented partitioning uses half-open cells so that a
// point on a shared cell boundary belongs to exactly one cell.
func (b Box) ContainsPointHalfOpen(p Vec) bool {
	return b.Min.X <= p.X && p.X < b.Max.X &&
		b.Min.Y <= p.Y && p.Y < b.Max.Y &&
		b.Min.Z <= p.Z && p.Z < b.Max.Z
}

// Intersection returns the overlap of b and o and whether it is non-empty.
func (b Box) Intersection(o Box) (Box, bool) {
	min := b.Min.Max(o.Min)
	max := b.Max.Min(o.Max)
	if !min.LessEq(max) {
		return Box{}, false
	}
	return Box{Min: min, Max: max}, true
}

// Union returns the smallest box containing both b and o.
func (b Box) Union(o Box) Box {
	return Box{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// Expand returns b grown by ext on every side (the query-window extension:
// a query box extended by the per-dataset maximum object half-extent is
// guaranteed to cover the centers of all intersecting objects).
func (b Box) Expand(ext Vec) Box {
	return Box{Min: b.Min.Sub(ext), Max: b.Max.Add(ext)}
}

// Clip returns b clipped to bounds. The second result is false when b lies
// entirely outside bounds.
func (b Box) Clip(bounds Box) (Box, bool) { return b.Intersection(bounds) }

// LongestSide returns the length of the box's longest edge.
func (b Box) LongestSide() float64 {
	s := b.Size()
	return math.Max(s.X, math.Max(s.Y, s.Z))
}

// Octant returns the i-th of the 2^3 equal sub-boxes of b, ordered by the
// bit pattern (x, y, z) of i. It panics when i is out of range.
func (b Box) Octant(i int) Box {
	if i < 0 || i >= 8 {
		panic(fmt.Sprintf("geom: octant index %d out of range", i))
	}
	c := b.Center()
	min, max := b.Min, b.Max
	var lo, hi Vec
	if i&1 == 0 {
		lo.X, hi.X = min.X, c.X
	} else {
		lo.X, hi.X = c.X, max.X
	}
	if i&2 == 0 {
		lo.Y, hi.Y = min.Y, c.Y
	} else {
		lo.Y, hi.Y = c.Y, max.Y
	}
	if i&4 == 0 {
		lo.Z, hi.Z = min.Z, c.Z
	} else {
		lo.Z, hi.Z = c.Z, max.Z
	}
	return Box{Min: lo, Max: hi}
}

// Subdivide splits b into k^3 equal cells (k per dimension) and returns them
// ordered x-fastest. k must be >= 1. The cells tile b exactly: cell (i,j,l)
// spans [Min + step*(i,j,l), Min + step*(i+1,j+1,l+1)].
func (b Box) Subdivide(k int) []Box {
	if k < 1 {
		panic(fmt.Sprintf("geom: subdivide k=%d must be >= 1", k))
	}
	cells := make([]Box, 0, k*k*k)
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				cells = append(cells, b.Cell(k, x, y, z))
			}
		}
	}
	return cells
}

// Cell returns cell (x, y, z) of b's k×k×k subdivision — Subdivide's cell
// (z*k+y)*k+x, bit for bit — without building the others.
func (b Box) Cell(k, x, y, z int) Box {
	step := b.Size().Div(float64(k))
	lo := b.Min.Add(Vec{step.X * float64(x), step.Y * float64(y), step.Z * float64(z)})
	hi := b.Min.Add(Vec{step.X * float64(x+1), step.Y * float64(y+1), step.Z * float64(z+1)})
	// Snap the outer faces to the parent box to avoid floating-point gaps at
	// the boundary.
	if x == k-1 {
		hi.X = b.Max.X
	}
	if y == k-1 {
		hi.Y = b.Max.Y
	}
	if z == k-1 {
		hi.Z = b.Max.Z
	}
	return Box{Min: lo, Max: hi}
}

// CellGrid is the k^3 subdivision of a box prepared for locating many points:
// the origin and the cell edge are worked out once, so bucketing a dataset
// costs one division per axis per object. It is the one implementation of the
// cell arithmetic — Box.CellIndex is written on it — and that arithmetic is
// part of every layout: int((coord-lo)/step) with step = size/k, clamped to
// [0, k), a degenerate axis mapping to 0. (Multiplying by a precomputed 1/step
// instead rounds boundary points into the neighbour cell.)
type CellGrid struct {
	lo, step Vec
	k        int
}

// Grid returns the k^3 subdivision of b (k >= 1), cells ordered x-fastest as
// in Subdivide.
func (b Box) Grid(k int) CellGrid {
	return CellGrid{lo: b.Min, step: b.Size().Div(float64(k)), k: k}
}

// axis is the cell coordinate of coord on one axis.
func (g *CellGrid) axis(coord, lo, st float64) int {
	if st <= 0 {
		return 0
	}
	i := int((coord - lo) / st)
	if i < 0 {
		i = 0
	}
	if i >= g.k {
		i = g.k - 1
	}
	return i
}

// Cell returns the (i,j,l) grid coordinates of the cell that contains point p
// under half-open semantics, clamping p to the box so boundary points map to
// the last cell.
func (g *CellGrid) Cell(p Vec) (ix, iy, iz int) {
	return g.axis(p.X, g.lo.X, g.step.X), g.axis(p.Y, g.lo.Y, g.step.Y), g.axis(p.Z, g.lo.Z, g.step.Z)
}

// Index returns the position of p's cell in Subdivide's order:
// (iz*k + iy)*k + ix. It spells the three axes out instead of calling Cell,
// which is past the inliner's budget: the bulk loops pay one call an object.
func (g *CellGrid) Index(p Vec) int {
	ix := g.axis(p.X, g.lo.X, g.step.X)
	iy := g.axis(p.Y, g.lo.Y, g.step.Y)
	iz := g.axis(p.Z, g.lo.Z, g.step.Z)
	return (iz*g.k+iy)*g.k + ix
}

// CellIndex returns the (i,j,l) grid coordinates of the cell of a k^3
// subdivision of b that contains point p; see CellGrid, which callers
// locating more than one point build once instead.
func (b Box) CellIndex(k int, p Vec) (ix, iy, iz int) {
	g := b.Grid(k)
	return g.Cell(p)
}

// Dist returns the minimum Euclidean distance between b and o; zero when
// they intersect.
func (b Box) Dist(o Box) float64 {
	var d2 float64
	for i := 0; i < Dims; i++ {
		lo1, hi1 := b.Min.Component(i), b.Max.Component(i)
		lo2, hi2 := o.Min.Component(i), o.Max.Component(i)
		switch {
		case hi1 < lo2:
			d := lo2 - hi1
			d2 += d * d
		case hi2 < lo1:
			d := lo1 - hi2
			d2 += d * d
		}
	}
	return math.Sqrt(d2)
}

// String implements fmt.Stringer.
func (b Box) String() string { return fmt.Sprintf("[%v — %v]", b.Min, b.Max) }
