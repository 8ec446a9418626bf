#include "geom/point_cloud.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace mesorasi::geom {

void
Aabb::extend(const Point3 &p)
{
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
}

bool
Aabb::contains(const Point3 &p) const
{
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y &&
           p.z >= lo.z && p.z <= hi.z;
}

float
Aabb::maxExtent() const
{
    Point3 e = extent();
    return std::max({e.x, e.y, e.z});
}

float
Aabb::dist2(const Point3 &p) const
{
    auto axis = [](float v, float lo_, float hi_) {
        if (v < lo_)
            return lo_ - v;
        if (v > hi_)
            return v - hi_;
        return 0.0f;
    };
    float dx = axis(p.x, lo.x, hi.x);
    float dy = axis(p.y, lo.y, hi.y);
    float dz = axis(p.z, lo.z, hi.z);
    return dx * dx + dy * dy + dz * dz;
}

PointCloud::PointCloud(std::vector<Point3> points)
    : points_(std::move(points))
{
}

void
PointCloud::add(const Point3 &p, int32_t label)
{
    // Labels are all-or-nothing: mixing is a usage error.
    MESO_REQUIRE(label < 0 || labels_.size() == points_.size(),
                 "adding a labelled point to an unlabelled cloud");
    MESO_REQUIRE(label >= 0 || labels_.empty(),
                 "adding an unlabelled point to a labelled cloud");
    points_.push_back(p);
    if (label >= 0)
        labels_.push_back(label);
}

Aabb
PointCloud::bounds() const
{
    Aabb box;
    for (const auto &p : points_)
        box.extend(p);
    return box;
}

Point3
PointCloud::centroid() const
{
    MESO_REQUIRE(!points_.empty(), "centroid of empty cloud");
    Point3 acc;
    for (const auto &p : points_)
        acc += p;
    return acc / static_cast<float>(points_.size());
}

void
PointCloud::normalizeToUnitSphere()
{
    if (points_.empty())
        return;
    Point3 c = centroid();
    float max_norm = 0.0f;
    for (auto &p : points_) {
        p = p - c;
        max_norm = std::max(max_norm, p.norm());
    }
    if (max_norm > 0.0f) {
        for (auto &p : points_)
            p = p / max_norm;
    }
}

PointCloud
PointCloud::select(const std::vector<int32_t> &indices) const
{
    PointCloud out;
    for (int32_t i : indices) {
        MESO_REQUIRE(i >= 0 && static_cast<size_t>(i) < points_.size(),
                     "select index " << i << " out of range");
        if (hasLabels())
            out.add(points_[i], labels_[i]);
        else
            out.add(points_[i]);
    }
    return out;
}

Status
validatePointCloud(const PointCloud &cloud)
{
    if (cloud.empty())
        return Status(StatusCode::InvalidInput, "empty point cloud");
    const std::vector<Point3> &pts = cloud.points();
    for (size_t i = 0; i < pts.size(); ++i) {
        const Point3 &p = pts[i];
        if (!std::isfinite(p.x) || !std::isfinite(p.y) ||
            !std::isfinite(p.z)) {
            std::ostringstream os;
            os << "point " << i << " has a non-finite coordinate ("
               << p.x << ", " << p.y << ", " << p.z << ")";
            return Status(StatusCode::InvalidInput, os.str());
        }
        if (std::fabs(p.x) > kMaxCoordinateMagnitude ||
            std::fabs(p.y) > kMaxCoordinateMagnitude ||
            std::fabs(p.z) > kMaxCoordinateMagnitude) {
            std::ostringstream os;
            os << "point " << i << " coordinate magnitude exceeds "
               << kMaxCoordinateMagnitude << " (" << p.x << ", " << p.y
               << ", " << p.z << ")";
            return Status(StatusCode::InvalidInput, os.str());
        }
    }
    return Status();
}

Status
validateInputCloud(const PointCloud &cloud, int32_t expectedPoints)
{
    Status s = validatePointCloud(cloud);
    if (!s.isOk())
        return s;
    if (static_cast<int64_t>(cloud.size()) != expectedPoints) {
        std::ostringstream os;
        os << "expected " << expectedPoints << " points, got "
           << cloud.size();
        return Status(StatusCode::ShapeMismatch, os.str());
    }
    return Status();
}

void
PointCloud::append(const PointCloud &other)
{
    MESO_REQUIRE(empty() || hasLabels() == other.hasLabels() ||
                     other.empty(),
                 "appending mixes labelled and unlabelled clouds");
    for (size_t i = 0; i < other.size(); ++i) {
        if (other.hasLabels())
            add(other[i], other.labels()[i]);
        else
            add(other[i]);
    }
}

} // namespace mesorasi::geom
