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

// LongestSide returns the length of the box's longest edge.
func (b Box) LongestSide() float64 {
	s := b.Size()
	return math.Max(s.X, math.Max(s.Y, s.Z))
}

// Cell returns cell (x, y, z) of b's k×k×k subdivision into equal cells,
// without building the others. Cells are numbered x-fastest: cell (x, y, z)
// is number (z*k+y)*k+x. They tile b exactly: the outer faces are b's own.
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
// cell arithmetic, and that arithmetic is part of every layout:
// int((coord-lo)/step) with step = size/k, clamped to [0, k), a degenerate
// axis mapping to 0. (Multiplying by a precomputed 1/step instead rounds
// boundary points into the neighbour cell.)
type CellGrid struct {
	lo, step Vec
	k        int
}

// Grid returns the k^3 subdivision of b (k >= 1), cells ordered x-fastest as
// as in Cell.
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

// Index returns the number of p's cell in Cell's order:
// (iz*k + iy)*k + ix. It spells the three axes out instead of calling Cell,
// which is past the inliner's budget: the bulk loops pay one call an object.
func (g *CellGrid) Index(p Vec) int {
	ix := g.axis(p.X, g.lo.X, g.step.X)
	iy := g.axis(p.Y, g.lo.Y, g.step.Y)
	iz := g.axis(p.Z, g.lo.Z, g.step.Z)
	return (iz*g.k+iy)*g.k + ix
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
