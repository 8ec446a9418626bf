/**
 * @file
 * Neighbor Index Table (NIT).
 *
 * The NIT is the central data structure of the delayed-aggregation
 * system: each entry holds one centroid's index plus the indices of its
 * K neighbors in the input point set (paper Fig. 8 / Fig. 14). It is
 * produced by neighbor search (on the GPU in the paper's SoC) and
 * consumed by the Aggregation Unit.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace mesorasi::neighbor {

/** One centroid's neighbor list. */
struct NitEntry
{
    int32_t centroid = -1;         ///< index of the centroid point
    std::vector<int32_t> neighbors; ///< indices of its neighbors
};

/**
 * The ball-query padding rule, the one copy every table fill uses:
 * row[0..count) holds the in-ball neighbors, nearest first. An empty
 * ball is seeded with the centroid itself (max over the pad is
 * idempotent, and the centroid is the natural degenerate
 * neighborhood), then the nearest member repeats until the row holds
 * exactly @p k indices.
 */
inline void
padBallRow(int32_t *row, int32_t count, int32_t k, int32_t centroid)
{
    if (count == 0)
        row[count++] = centroid;
    for (; count < k; ++count)
        row[count] = row[0];
}

/**
 * Table of neighbor indices for all centroids of one module. Rows may
 * have fewer than maxK neighbors (radius queries); k-NN rows always have
 * exactly k.
 */
class NeighborIndexTable
{
  public:
    NeighborIndexTable() = default;

    /** @param maxK upper bound on neighbors per entry (storage layout). */
    explicit NeighborIndexTable(int32_t maxK) : maxK_(maxK)
    {
        MESO_REQUIRE(maxK > 0, "maxK must be positive");
    }

    void
    add(NitEntry entry)
    {
        MESO_REQUIRE(static_cast<int32_t>(entry.neighbors.size()) <= maxK_,
                     "entry exceeds maxK=" << maxK_);
        entries_.push_back(std::move(entry));
    }

    int32_t size() const { return static_cast<int32_t>(entries_.size()); }
    int32_t maxK() const { return maxK_; }
    bool empty() const { return entries_.empty(); }

    const NitEntry &operator[](int32_t i) const { return entries_[i]; }

    const std::vector<NitEntry> &entries() const { return entries_; }

    /** Total neighbor indices stored across all entries. */
    int64_t
    totalNeighbors() const
    {
        int64_t acc = 0;
        for (const auto &e : entries_)
            acc += static_cast<int64_t>(e.neighbors.size());
        return acc;
    }

    /**
     * Size in bytes using the paper's packing: 12-bit indices, one
     * centroid plus maxK neighbor slots per entry (Sec. VI sizes each
     * 64-neighbor entry at 98 bytes, i.e. 12 bits per index + header).
     */
    int64_t
    packedBytes() const
    {
        // (1 + maxK) indices at 12 bits, rounded up per entry.
        int64_t bits_per_entry = (1 + maxK_) * 12;
        int64_t bytes_per_entry = (bits_per_entry + 7) / 8;
        return bytes_per_entry * size();
    }

    /** Largest point index referenced anywhere in the table (-1 if none).*/
    int32_t maxReferencedIndex() const;

  private:
    int32_t maxK_ = 1;
    std::vector<NitEntry> entries_;
};

} // namespace mesorasi::neighbor
