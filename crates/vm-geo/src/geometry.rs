//! Planar points, segments, rectangles, and intersection predicates.

/// A point (or vector) in the local planar frame, meters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point {
    /// East coordinate in meters.
    pub x: f64,
    /// North coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        (*self - *other).norm()
    }

    /// Squared Euclidean distance (cheaper; for comparisons).
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let d = *self - *other;
        d.x * d.x + d.y * d.y
    }

    /// Vector length.
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Linear interpolation: `self + t * (other - self)`.
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }

    /// 2D cross product (z-component) of `self × other`.
    pub fn cross(&self, other: &Point) -> f64 {
        self.x * other.y - self.y * other.x
    }
}

impl std::ops::Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Mul<f64> for Point {
    type Output = Point;
    fn mul(self, s: f64) -> Point {
        Point::new(self.x * s, self.y * s)
    }
}

/// A line segment between two points.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Construct a segment.
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// Point at parameter `t` in `[0, 1]`.
    pub fn at(&self, t: f64) -> Point {
        self.a.lerp(&self.b, t)
    }
}

/// Orientation of the triple (a, b, c): >0 counter-clockwise, <0 clockwise,
/// 0 collinear (with a small epsilon).
fn orient(a: &Point, b: &Point, c: &Point) -> i8 {
    let v = (*b - *a).cross(&(*c - *a));
    if v > 1e-9 {
        1
    } else if v < -1e-9 {
        -1
    } else {
        0
    }
}

fn on_segment(a: &Point, b: &Point, p: &Point) -> bool {
    p.x >= a.x.min(b.x) - 1e-9
        && p.x <= a.x.max(b.x) + 1e-9
        && p.y >= a.y.min(b.y) - 1e-9
        && p.y <= a.y.max(b.y) + 1e-9
}

/// True iff segments `s1` and `s2` intersect (including touching).
pub fn segments_intersect(s1: &Segment, s2: &Segment) -> bool {
    let o1 = orient(&s1.a, &s1.b, &s2.a);
    let o2 = orient(&s1.a, &s1.b, &s2.b);
    let o3 = orient(&s2.a, &s2.b, &s1.a);
    let o4 = orient(&s2.a, &s2.b, &s1.b);
    if o1 != o2 && o3 != o4 {
        return true;
    }
    (o1 == 0 && on_segment(&s1.a, &s1.b, &s2.a))
        || (o2 == 0 && on_segment(&s1.a, &s1.b, &s2.b))
        || (o3 == 0 && on_segment(&s2.a, &s2.b, &s1.a))
        || (o4 == 0 && on_segment(&s2.a, &s2.b, &s1.b))
}

/// An axis-aligned rectangle (building footprint, coverage area, ...).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
}

impl Rect {
    /// Construct from corners (normalizes order).
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Construct a rect centered at `c` with the given half-extents.
    pub fn centered(c: Point, half_w: f64, half_h: f64) -> Self {
        Rect::new(
            Point::new(c.x - half_w, c.y - half_h),
            Point::new(c.x + half_w, c.y + half_h),
        )
    }

    /// Center of the rect.
    pub fn center(&self) -> Point {
        self.min.lerp(&self.max, 0.5)
    }

    /// Width (x extent).
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y extent).
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// True iff `p` lies inside or on the boundary.
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True iff the segment crosses or touches the rect.
    pub fn intersects_segment(&self, s: &Segment) -> bool {
        if self.contains(&s.a) || self.contains(&s.b) {
            return true;
        }
        let corners = [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ];
        for i in 0..4 {
            let edge = Segment::new(corners[i], corners[(i + 1) % 4]);
            if segments_intersect(s, &edge) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!((b - a).norm(), 5.0);
        assert_eq!(a.lerp(&b, 0.5), Point::new(2.5, 4.0));
        assert_eq!((a * 2.0).x, 2.0);
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let s2 = Segment::new(Point::new(0.0, 10.0), Point::new(10.0, 0.0));
        assert!(segments_intersect(&s1, &s2));
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let s2 = Segment::new(Point::new(0.0, 1.0), Point::new(10.0, 1.0));
        assert!(!segments_intersect(&s1, &s2));
    }

    #[test]
    fn touching_endpoint_counts_as_intersection() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let s2 = Segment::new(Point::new(10.0, 0.0), Point::new(10.0, 10.0));
        assert!(segments_intersect(&s1, &s2));
    }

    #[test]
    fn collinear_overlapping_segments_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let s2 = Segment::new(Point::new(5.0, 0.0), Point::new(15.0, 0.0));
        assert!(segments_intersect(&s1, &s2));
        let s3 = Segment::new(Point::new(11.0, 0.0), Point::new(15.0, 0.0));
        assert!(!segments_intersect(&s1, &s3));
    }

    #[test]
    fn rect_contains_and_segment() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        assert!(r.contains(&Point::new(5.0, 5.0)));
        assert!(!r.contains(&Point::new(-1.0, 5.0)));
        // Segment passing through.
        let s = Segment::new(Point::new(-5.0, 5.0), Point::new(15.0, 5.0));
        assert!(r.intersects_segment(&s));
        // Segment fully outside.
        let s2 = Segment::new(Point::new(-5.0, -5.0), Point::new(-1.0, 20.0));
        assert!(!r.intersects_segment(&s2));
        // Segment fully inside.
        let s3 = Segment::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0));
        assert!(r.intersects_segment(&s3));
    }

    #[test]
    fn rect_normalizes_corners() {
        let r = Rect::new(Point::new(10.0, 10.0), Point::new(0.0, 0.0));
        assert_eq!(r.min, Point::new(0.0, 0.0));
        assert_eq!(r.width(), 10.0);
        assert_eq!(r.center(), Point::new(5.0, 5.0));
    }
}
