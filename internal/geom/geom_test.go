package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
}

func TestRectConstruction(t *testing.T) {
	r := RectWH(1, 2, 3, 4)
	if r.W() != 3 || r.H() != 4 {
		t.Fatalf("RectWH dims = %g x %g", r.W(), r.H())
	}
	if r.Area() != 12 {
		t.Fatalf("Area = %g", r.Area())
	}
	if c := r.Center(); c != (Point{2.5, 4}) {
		t.Fatalf("Center = %v", c)
	}
	rc := RectCenter(Point{0, 0}, 2, 6)
	if rc.Lo != (Point{-1, -3}) || rc.Hi != (Point{1, 3}) {
		t.Fatalf("RectCenter = %v", rc)
	}
}

func TestRectOverlap(t *testing.T) {
	a := RectWH(0, 0, 4, 4)
	b := RectWH(2, 2, 4, 4)
	c := RectWH(4, 0, 2, 2) // touches a's right edge
	d := RectWH(10, 10, 1, 1)

	if !a.Overlaps(b) {
		t.Error("a should overlap b")
	}
	if a.Overlaps(c) {
		t.Error("touching edges must not count as overlap")
	}
	if a.Overlaps(d) {
		t.Error("disjoint rects must not overlap")
	}
	if got := a.OverlapArea(b); got != 4 {
		t.Errorf("OverlapArea = %g, want 4", got)
	}
	if got := a.OverlapArea(d); got != 0 {
		t.Errorf("OverlapArea disjoint = %g, want 0", got)
	}
	dx, dy := a.OverlapDims(b)
	if dx != 2 || dy != 2 {
		t.Errorf("OverlapDims = %g,%g want 2,2", dx, dy)
	}
	dx, dy = a.OverlapDims(d)
	if dx != 0 || dy != 0 {
		t.Errorf("OverlapDims disjoint = %g,%g", dx, dy)
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := RectWH(0, 0, 4, 4)
	b := RectWH(2, 1, 4, 4)
	got := a.Intersect(b)
	want := Rect{Point{2, 1}, Point{4, 4}}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if !a.Intersect(RectWH(9, 9, 1, 1)).Empty() {
		t.Error("disjoint intersect should be empty")
	}
	u := a.Union(b)
	if u != (Rect{Point{0, 0}, Point{6, 5}}) {
		t.Errorf("Union = %v", u)
	}
	if got := (Rect{}).Union(a); got != a {
		t.Errorf("empty union identity = %v", got)
	}
	if got := a.Union(Rect{}); got != a {
		t.Errorf("union with empty = %v", got)
	}
}

func TestRectContains(t *testing.T) {
	r := RectWH(0, 0, 10, 5)
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 5}) || !r.Contains(Point{5, 2}) {
		t.Error("boundary/interior points should be contained")
	}
	if r.Contains(Point{-0.1, 0}) || r.Contains(Point{5, 5.1}) {
		t.Error("outside points must not be contained")
	}
	if !r.ContainsRect(RectWH(1, 1, 2, 2)) {
		t.Error("inner rect should be contained")
	}
	if r.ContainsRect(RectWH(9, 4, 2, 2)) {
		t.Error("overhanging rect must not be contained")
	}
}

func TestRectTranslate(t *testing.T) {
	r := RectWH(0, 0, 2, 2).Translate(Point{3, -1})
	if r != (Rect{Point{3, -1}, Point{5, 1}}) {
		t.Errorf("Translate = %v", r)
	}
}

func TestInterval(t *testing.T) {
	iv := Interval{2, 5}
	if iv.Len() != 3 {
		t.Errorf("Len = %g", iv.Len())
	}
	if !iv.Contains(2) || !iv.Contains(5) || iv.Contains(5.001) {
		t.Error("Contains boundary behaviour wrong")
	}
	if iv.Clamp(0) != 2 || iv.Clamp(9) != 5 || iv.Clamp(3) != 3 {
		t.Error("Clamp wrong")
	}
}

func TestBoundingBox(t *testing.T) {
	if !BoundingBox(nil).Empty() {
		t.Error("empty point set should give empty box")
	}
	pts := []Point{{1, 1}, {-2, 5}, {3, 0}}
	bb := BoundingBox(pts)
	if bb != (Rect{Point{-2, 0}, Point{3, 5}}) {
		t.Errorf("BoundingBox = %v", bb)
	}
}

// Property: overlap area is symmetric and never exceeds either rect's area.
func TestOverlapAreaProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		aw, ah = math.Abs(aw)+0.01, math.Abs(ah)+0.01
		bw, bh = math.Abs(bw)+0.01, math.Abs(bh)+0.01
		// Keep magnitudes sane to avoid float blow-ups from quick's extremes.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := RectWH(clamp(ax), clamp(ay), clamp(aw), clamp(ah))
		b := RectWH(clamp(bx), clamp(by), clamp(bw), clamp(bh))
		ov1, ov2 := a.OverlapArea(b), b.OverlapArea(a)
		if math.Abs(ov1-ov2) > 1e-6*(1+ov1) {
			return false
		}
		return ov1 <= a.Area()+1e-6 && ov1 <= b.Area()+1e-6 && ov1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Union contains both operands; Intersect is contained in both.
func TestUnionIntersectProperties(t *testing.T) {
	f := func(ax, ay, bx, by float64, aw, ah, bw, bh uint8) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e4)
		}
		a := RectWH(clamp(ax), clamp(ay), float64(aw)+1, float64(ah)+1)
		b := RectWH(clamp(bx), clamp(by), float64(bw)+1, float64(bh)+1)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		iv := a.Intersect(b)
		if iv.Empty() {
			return true
		}
		return a.ContainsRect(iv) && b.ContainsRect(iv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
