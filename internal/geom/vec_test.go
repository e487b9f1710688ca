package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecArithmetic(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, 5, 6)
	if got := a.Add(b); got != V(5, 7, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != V(3, 3, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(2); got != V(2, 4, 6) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Div(2); got != V(0.5, 1, 1.5) {
		t.Errorf("Div = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVecMinMax(t *testing.T) {
	a := V(1, 9, 3)
	b := V(4, 2, 8)
	if got := a.Min(b); got != V(1, 2, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(4, 9, 8) {
		t.Errorf("Max = %v", got)
	}
}

// Vec.Min and Vec.Max use the builtin min and max, which must be math.Min
// and math.Max bit for bit on every pair of non-NaN components — signed
// zeros, infinities and subnormals included — because Box.Union folds and
// the bulk loads built on them feed the layout and the simulated clock. With
// a NaN component the builtins return NaN (math.Min(-Inf, NaN) is -Inf, a
// case no caller reaches: objects are validated finite first).
func TestVecMinMaxMatchMath(t *testing.T) {
	check := func(x, y float64) bool {
		nan := math.IsNaN(x) || math.IsNaN(y)
		// Both argument orders: component X and Z are (x, y), Y is (y, x).
		mn, mx := V(x, y, x).Min(V(y, x, y)), V(x, y, x).Max(V(y, x, y))
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Min", mn.X, math.Min(x, y)}, {"Min", mn.Y, math.Min(y, x)}, {"Min", mn.Z, math.Min(x, y)},
			{"Max", mx.X, math.Max(x, y)}, {"Max", mx.Y, math.Max(y, x)}, {"Max", mx.Z, math.Max(x, y)},
		} {
			if nan && !math.IsNaN(c.got) || !nan && math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Errorf("%s of %v and %v = %v (%#x), math.%s = %v (%#x)", c.name, x, y,
					c.got, math.Float64bits(c.got), c.name, c.want, math.Float64bits(c.want))
				return false
			}
		}
		return true
	}
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022 / 2, -0x1p-1022 / 2, math.MaxFloat64, -math.MaxFloat64,
	}
	for _, x := range specials {
		for _, y := range specials {
			check(x, y)
		}
	}
	cfg := &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
	// Raw bit patterns reach every sign, exponent and payload.
	bits := func(x, y uint64) bool { return check(math.Float64frombits(x), math.Float64frombits(y)) }
	if err := quick.Check(bits, cfg); err != nil {
		t.Error(err)
	}
}

func TestVecComponent(t *testing.T) {
	v := V(7, 8, 9)
	for i, want := range []float64{7, 8, 9} {
		if got := v.Component(i); got != want {
			t.Errorf("Component(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestVecComponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Component(3) did not panic")
		}
	}()
	V(0, 0, 0).Component(3)
}

func TestVecLenDist(t *testing.T) {
	if got := V(3, 4, 0).Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
	if got := V(1, 1, 1).Sub(V(1, 1, 1)).Len(); got != 0 {
		t.Errorf("Dist(self) = %v", got)
	}
	if got := V(0, 0, 0).Sub(V(0, 0, 2)).Len(); got != 2 {
		t.Errorf("Dist = %v", got)
	}
}

func TestVecOrdering(t *testing.T) {
	if !V(1, 1, 1).LessEq(V(1, 1, 1)) {
		t.Error("LessEq false for equal")
	}
}

func TestVecFinite(t *testing.T) {
	if !V(1, 2, 3).Finite() {
		t.Error("finite vec reported non-finite")
	}
	for _, bad := range []Vec{
		{math.NaN(), 0, 0}, {0, math.Inf(1), 0}, {0, 0, math.Inf(-1)},
	} {
		if bad.Finite() {
			t.Errorf("%v reported finite", bad)
		}
	}
}

func TestSplat(t *testing.T) {
	if got := Splat(2.5); got != V(2.5, 2.5, 2.5) {
		t.Errorf("Splat = %v", got)
	}
}

// Property: Add and Sub are inverses.
func TestVecAddSubInverseProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V(ax, ay, az), V(bx, by, bz)
		if !a.Finite() || !b.Finite() {
			return true
		}
		// Limit magnitudes: near math.MaxFloat64 the addition overflows and
		// the inverse property cannot hold for any implementation.
		for i := 0; i < Dims; i++ {
			if math.Abs(a.Component(i)) > 1e100 || math.Abs(b.Component(i)) > 1e100 {
				return true
			}
		}
		got := a.Add(b).Sub(b)
		// Floating point: (a+b)-b loses the low bits of a when |b| >> |a|,
		// so tolerance must be relative to the larger operand.
		tol := func(x, y float64) float64 {
			return 1e-9 * math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		}
		return math.Abs(got.X-a.X) <= tol(a.X, b.X) &&
			math.Abs(got.Y-a.Y) <= tol(a.Y, b.Y) &&
			math.Abs(got.Z-a.Z) <= tol(a.Z, b.Z)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Min/Max are commutative and bound their inputs.
func TestVecMinMaxProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V(ax, ay, az), V(bx, by, bz)
		if !a.Finite() || !b.Finite() {
			return true
		}
		mn, mx := a.Min(b), a.Max(b)
		return mn == b.Min(a) && mx == b.Max(a) &&
			mn.LessEq(a) && mn.LessEq(b) && a.LessEq(mx) && b.LessEq(mx)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
