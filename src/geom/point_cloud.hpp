/**
 * @file
 * Point-cloud container and axis-aligned bounding box.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "geom/point.hpp"

namespace mesorasi::geom {

/**
 * Largest coordinate magnitude accepted by validatePointCloud. Real
 * LiDAR/depth-sensor clouds live within a few hundred meters of the
 * origin; anything near float-overflow territory is corrupt input that
 * would silently break squared-distance math downstream (x*x overflows
 * to Inf around 2e19).
 */
inline constexpr float kMaxCoordinateMagnitude = 1.0e9f;

/** Axis-aligned bounding box in 3-D. */
struct Aabb
{
    Point3 lo{std::numeric_limits<float>::max(),
              std::numeric_limits<float>::max(),
              std::numeric_limits<float>::max()};
    Point3 hi{std::numeric_limits<float>::lowest(),
              std::numeric_limits<float>::lowest(),
              std::numeric_limits<float>::lowest()};

    /** Grow the box to contain @p p. */
    void extend(const Point3 &p);

    /** True if the box contains no points yet. */
    bool empty() const { return lo.x > hi.x; }

    /** True if @p p lies inside (inclusive). */
    bool contains(const Point3 &p) const;

    Point3 center() const { return (lo + hi) * 0.5f; }
    Point3 extent() const { return hi - lo; }

    /** Longest edge length of the box. */
    float maxExtent() const;

    /** Squared distance from @p p to the box (0 if inside). */
    float dist2(const Point3 &p) const;
};

/**
 * An unordered set of 3-D points, optionally carrying a per-point integer
 * label (used for segmentation ground truth in the synthetic datasets).
 */
class PointCloud
{
  public:
    PointCloud() = default;
    explicit PointCloud(std::vector<Point3> points);

    /** Append a point (with an optional label). */
    void add(const Point3 &p, int32_t label = -1);

    size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }

    const Point3 &operator[](size_t i) const { return points_[i]; }
    Point3 &operator[](size_t i) { return points_[i]; }

    const std::vector<Point3> &points() const { return points_; }
    const std::vector<int32_t> &labels() const { return labels_; }

    /** True if every point carries a label. */
    bool hasLabels() const
    { return !points_.empty() && labels_.size() == points_.size(); }

    /** Bounding box of all points. */
    Aabb bounds() const;

    /** Centroid (mean position); requires a non-empty cloud. */
    Point3 centroid() const;

    /**
     * Normalize into the unit sphere: translate the centroid to the origin
     * and scale so the farthest point has norm 1. Standard preprocessing
     * for ModelNet-style classification inputs.
     */
    void normalizeToUnitSphere();

    /** Keep only the points at the given indices (order preserved). */
    PointCloud select(const std::vector<int32_t> &indices) const;

    /** Concatenate another cloud into this one. */
    void append(const PointCloud &other);

  private:
    std::vector<Point3> points_;
    std::vector<int32_t> labels_;
};

/**
 * Ingestion front door: reject clouds no inference pipeline should ever
 * see. Returns InvalidInput for an empty cloud, a NaN/Inf coordinate,
 * or a coordinate beyond kMaxCoordinateMagnitude; Ok otherwise. Never
 * throws and allocates only on failure (the message), so serving paths
 * can call it per-request.
 */
Status validatePointCloud(const PointCloud &cloud);

/**
 * The inference front door both runtimes share (NetworkExecutor::run
 * and CompiledEngine::validate): validatePointCloud, then ShapeMismatch
 * when the cloud does not hold exactly @p expectedPoints points.
 */
Status validateInputCloud(const PointCloud &cloud, int32_t expectedPoints);

} // namespace mesorasi::geom
