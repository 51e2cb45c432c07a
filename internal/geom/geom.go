// Package geom provides the small set of planar geometry primitives shared
// by every placement subsystem: points, axis-aligned rectangles and
// one-dimensional intervals, all in float64 grid units.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

func (p Point) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle described by its lower-left (Lo) and
// upper-right (Hi) corners. A Rect is valid when Lo.X <= Hi.X and
// Lo.Y <= Hi.Y; the zero Rect is a valid empty rectangle at the origin.
type Rect struct {
	Lo, Hi Point
}

// RectWH returns the rectangle with lower-left corner (x, y), width w and
// height h.
func RectWH(x, y, w, h float64) Rect {
	return Rect{Point{x, y}, Point{x + w, y + h}}
}

// RectCenter returns the rectangle of width w and height h centered on c.
func RectCenter(c Point, w, h float64) Rect {
	return Rect{Point{c.X - w/2, c.Y - h/2}, Point{c.X + w/2, c.Y + h/2}}
}

// W returns the rectangle width.
func (r Rect) W() float64 { return r.Hi.X - r.Lo.X }

// H returns the rectangle height.
func (r Rect) H() float64 { return r.Hi.Y - r.Lo.Y }

// Area returns the rectangle area.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the rectangle center point.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Empty reports whether r has zero (or negative) extent in either axis.
func (r Rect) Empty() bool { return r.W() <= 0 || r.H() <= 0 }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// ContainsRect reports whether s lies entirely inside r (boundary inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	return r.Contains(s.Lo) && r.Contains(s.Hi)
}

// Intersect returns the intersection of r and s. The result may be empty;
// callers should check Empty before using its extent.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Point{math.Max(r.Lo.X, s.Lo.X), math.Max(r.Lo.Y, s.Lo.Y)},
		Point{math.Min(r.Hi.X, s.Hi.X), math.Min(r.Hi.Y, s.Hi.Y)},
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Overlaps reports whether r and s share interior area (touching edges do
// not count as overlap).
func (r Rect) Overlaps(s Rect) bool {
	return r.Lo.X < s.Hi.X && s.Lo.X < r.Hi.X && r.Lo.Y < s.Hi.Y && s.Lo.Y < r.Hi.Y
}

// OverlapArea returns the interior overlap area between r and s.
func (r Rect) OverlapArea(s Rect) float64 {
	dx := math.Min(r.Hi.X, s.Hi.X) - math.Max(r.Lo.X, s.Lo.X)
	dy := math.Min(r.Hi.Y, s.Hi.Y) - math.Max(r.Lo.Y, s.Lo.Y)
	if dx <= 0 || dy <= 0 {
		return 0
	}
	return dx * dy
}

// OverlapDims returns the width and height of the interior overlap between
// r and s (both zero when they do not overlap). These are the Δx and Δy the
// detailed placer uses to classify an overlapping pair as horizontally or
// vertically separable.
func (r Rect) OverlapDims(s Rect) (dx, dy float64) {
	dx = math.Min(r.Hi.X, s.Hi.X) - math.Max(r.Lo.X, s.Lo.X)
	dy = math.Min(r.Hi.Y, s.Hi.Y) - math.Max(r.Lo.Y, s.Lo.Y)
	if dx <= 0 || dy <= 0 {
		return 0, 0
	}
	return dx, dy
}

// Union returns the smallest rectangle containing both r and s. An empty
// rectangle acts as the identity element.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		Point{math.Min(r.Lo.X, s.Lo.X), math.Min(r.Lo.Y, s.Lo.Y)},
		Point{math.Max(r.Hi.X, s.Hi.X), math.Max(r.Hi.Y, s.Hi.Y)},
	}
}

// Translate returns r shifted by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.Lo.Add(d), r.Hi.Add(d)}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%s-%s]", r.Lo, r.Hi)
}

// Interval is a one-dimensional closed interval.
type Interval struct {
	Lo, Hi float64
}

// Len returns the interval length.
func (iv Interval) Len() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x lies within the interval (inclusive).
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Clamp returns x limited to the interval.
func (iv Interval) Clamp(x float64) float64 {
	if x < iv.Lo {
		return iv.Lo
	}
	if x > iv.Hi {
		return iv.Hi
	}
	return x
}

// BoundingBox returns the smallest rectangle containing all points. It
// returns the empty Rect for an empty slice.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{pts[0], pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Lo.X {
			r.Lo.X = p.X
		}
		if p.Y < r.Lo.Y {
			r.Lo.Y = p.Y
		}
		if p.X > r.Hi.X {
			r.Hi.X = p.X
		}
		if p.Y > r.Hi.Y {
			r.Hi.Y = p.Y
		}
	}
	return r
}
