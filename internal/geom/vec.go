// Package geom provides the 3D geometric primitives used throughout the
// Space Odyssey engine: vectors, axis-aligned boxes, volume arithmetic and
// the query-window extension technique (Stefanakis et al., IJGIS'97) that
// lets space-oriented partitioning index volumetric objects by their center
// point without replication.
package geom

import (
	"fmt"
	"math"
)

// Dims is the dimensionality of the space. The paper's datasets and all
// experiments are 3D; the constant centralizes the few places that depend
// on it (e.g. 2^Dims octree fanout).
const Dims = 3

// Vec is a point or displacement in 3D space.
type Vec struct {
	X, Y, Z float64
}

// V constructs a Vec.
func V(x, y, z float64) Vec { return Vec{x, y, z} }

// Splat returns a Vec with all components set to s.
func Splat(s float64) Vec { return Vec{s, s, s} }

// Add returns v + o.
func (v Vec) Add(o Vec) Vec { return Vec{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v Vec) Sub(o Vec) Vec { return Vec{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Mul returns the component-wise scaling of v by s.
func (v Vec) Mul(s float64) Vec { return Vec{v.X * s, v.Y * s, v.Z * s} }

// MulVec returns the component-wise (Hadamard) product of v and o.
func (v Vec) MulVec(o Vec) Vec { return Vec{v.X * o.X, v.Y * o.Y, v.Z * o.Z} }

// Div returns the component-wise division of v by s.
func (v Vec) Div(s float64) Vec { return Vec{v.X / s, v.Y / s, v.Z / s} }

// Min returns the component-wise minimum of v and o. The builtin min it
// uses inlines where math.Min does not, and on every pair of non-NaN
// components it is math.Min bit for bit, -0 < +0 included. A NaN component
// yields NaN even against -Inf, where math.Min returns -Inf; the bulk loads
// and bounds folds calling it see validated, finite objects only.
func (v Vec) Min(o Vec) Vec {
	return Vec{min(v.X, o.X), min(v.Y, o.Y), min(v.Z, o.Z)}
}

// Max returns the component-wise maximum of v and o: math.Max bit for bit on
// non-NaN components, as Min is math.Min (a NaN wins even against +Inf).
func (v Vec) Max(o Vec) Vec {
	return Vec{max(v.X, o.X), max(v.Y, o.Y), max(v.Z, o.Z)}
}

// Component returns the i-th component (0=X, 1=Y, 2=Z).
func (v Vec) Component(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	case 2:
		return v.Z
	}
	panic(fmt.Sprintf("geom: component index %d out of range", i))
}

// WithComponent returns a copy of v with the i-th component set to val.
func (v Vec) WithComponent(i int, val float64) Vec {
	switch i {
	case 0:
		v.X = val
	case 1:
		v.Y = val
	case 2:
		v.Z = val
	default:
		panic(fmt.Sprintf("geom: component index %d out of range", i))
	}
	return v
}

// Dot returns the dot product of v and o.
func (v Vec) Dot(o Vec) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and o.
func (v Vec) Dist(o Vec) float64 { return v.Sub(o).Len() }

// Less reports whether every component of v is strictly less than o's.
func (v Vec) Less(o Vec) bool { return v.X < o.X && v.Y < o.Y && v.Z < o.Z }

// LessEq reports whether every component of v is <= o's.
func (v Vec) LessEq(o Vec) bool { return v.X <= o.X && v.Y <= o.Y && v.Z <= o.Z }

// Eq reports exact component-wise equality.
func (v Vec) Eq(o Vec) bool { return v == o }

// Finite reports whether all components are finite numbers.
func (v Vec) Finite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String implements fmt.Stringer.
func (v Vec) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }
