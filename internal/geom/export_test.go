package geom

// Predicates the package's tests check boxes with. Nothing outside tests
// needs them, so they live here.

// Valid reports whether the box has Min <= Max in every dimension and all
// finite coordinates.
func (b Box) Valid() bool {
	return b.Min.Finite() && b.Max.Finite() && b.Min.LessEq(b.Max)
}

// ContainsPointHalfOpen reports whether p lies in the half-open box
// [Min, Max). Space-oriented partitioning uses half-open cells so that a
// point on a shared cell boundary belongs to exactly one cell.
func (b Box) ContainsPointHalfOpen(p Vec) bool {
	return b.Min.X <= p.X && p.X < b.Max.X &&
		b.Min.Y <= p.Y && p.Y < b.Max.Y &&
		b.Min.Z <= p.Z && p.Z < b.Max.Z
}

// Contains reports whether o lies entirely inside b.
func (b Box) Contains(o Box) bool {
	return b.Min.LessEq(o.Min) && o.Max.LessEq(b.Max)
}

// ContainsPoint reports whether point p lies inside b (closed).
func (b Box) ContainsPoint(p Vec) bool {
	return b.Min.LessEq(p) && p.LessEq(b.Max)
}
