package rawfile

import (
	"context"
	"math"

	"spaceodyssey/internal/geom"
)

// Probes the package's tests read through. Nothing outside tests needs
// them, so they live here.

// Bounds returns the union of the stored objects' boxes (the zero Box for an
// empty file), read back from the device and folded in one pass, building no
// box: a box's corners are c-h and c+h, min and max pass the other operand
// through from the starting infinities, and the builtin min and max are
// math.Min and math.Max on the non-NaN values a valid object has. It panics
// on a read error: the tests' devices inject no faults.
func (r *Raw) Bounds() geom.Box {
	objs, err := r.AppendAllCtx(context.Background(), nil)
	if err != nil {
		panic(err)
	}
	if len(objs) == 0 {
		return geom.Box{}
	}
	lo, hi := geom.Splat(math.Inf(1)), geom.Splat(math.Inf(-1))
	for _, o := range objs {
		lo, hi = lo.Min(o.Center.Sub(o.HalfExtent)), hi.Max(o.Center.Add(o.HalfExtent))
	}
	return geom.Box{Min: lo, Max: hi}
}
