#include "reduction/full_pairs.h"

#include <algorithm>
#include <optional>

#include "reduction/shard_partitioner.h"
#include "util/checked_math.h"

namespace pdd {

namespace {

/// Walks the (i, j) upper triangle in lexicographic order — exactly the
/// canonical candidate order — holding nothing but the two counters.
class FullPairSource : public PairBatchSource {
 public:
  explicit FullPairSource(size_t n) : n_(n), j_(1) {}

  size_t NextBatch(size_t max_batch, std::vector<CandidatePair>* out) override {
    out->clear();
    SkipUnownedRows();
    while (out->size() < max_batch && i_ + 1 < n_) {
      out->push_back({i_, j_});
      if (++j_ == n_) {
        ++i_;
        j_ = i_ + 1;
        SkipUnownedRows();
      }
    }
    return out->size();
  }

  /// n(n-1)/2 before the first pull, so the executor reserves the
  /// decision vector once instead of regrowing it; unknown once
  /// restricted to a shard.
  std::optional<size_t> exact_count_hint() const override {
    if (assignment_ != nullptr || i_ != 0 || j_ != 1) return std::nullopt;
    return TriangularPairCount(n_);
  }

  bool RestrictToShard(std::shared_ptr<const ShardAssignment> assignment,
                       uint32_t shard) override {
    assignment_ = std::move(assignment);
    shard_ = shard;
    return true;
  }

 private:
  /// Advances i_ past rows owned by other shards (index arithmetic
  /// only — nothing is buffered either way).
  void SkipUnownedRows() {
    if (assignment_ == nullptr) return;
    while (i_ + 1 < n_ && !assignment_->Owns(i_, shard_)) {
      ++i_;
      j_ = i_ + 1;
    }
  }

  size_t n_;
  size_t i_ = 0;
  size_t j_;
  std::shared_ptr<const ShardAssignment> assignment_;
  uint32_t shard_ = 0;
};

}  // namespace

Result<std::vector<CandidatePair>> FullPairs::Generate(
    const XRelation& rel) const {
  std::vector<CandidatePair> pairs;
  size_t n = rel.size();
  // Saturating: the naive n*(n-1)/2 wraps for large n and would reserve
  // a garbage size. A saturated count can't be allocated either, so cap
  // the up-front reservation and let push_back grow (or throw) honestly.
  pairs.reserve(std::min(TriangularPairCount(n), size_t{1} << 24));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      pairs.push_back({i, j});
    }
  }
  return pairs;
}

Result<std::unique_ptr<PairBatchSource>> FullPairs::Stream(
    const XRelation& rel) const {
  return std::unique_ptr<PairBatchSource>(
      std::make_unique<FullPairSource>(rel.size()));
}

}  // namespace pdd
