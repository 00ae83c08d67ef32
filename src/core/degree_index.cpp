#include "core/degree_index.hpp"

#include "common/check.hpp"

namespace ltnc::core {

DegreeIndex::DegreeIndex(std::size_t k)
    : buckets_(k + 1), weighted_(k) {
  LTNC_CHECK_MSG(k > 0, "code length must be positive");
}

void DegreeIndex::insert(PacketId id, std::size_t degree) {
  LTNC_CHECK_MSG(degree >= 1 && degree < buckets_.size(),
                 "degree out of range");
  if (id >= pos_.size()) pos_.resize(id + 1, 0);
  pos_[id] = static_cast<std::uint32_t>(buckets_[degree].size());
  buckets_[degree].push_back(id);
  weighted_.add(degree - 1, static_cast<std::int64_t>(degree));
  ++total_;
  if (degree > max_degree_) max_degree_ = degree;
}

void DegreeIndex::unlink(PacketId id, std::size_t degree) {
  LTNC_CHECK_MSG(degree >= 1 && degree < buckets_.size(),
                 "degree out of range");
  auto& bucket = buckets_[degree];
  const std::uint32_t slot = pos_[id];
  LTNC_CHECK_MSG(slot < bucket.size() && bucket[slot] == id,
                 "packet not registered at this degree");
  const PacketId moved = bucket.back();
  bucket[slot] = moved;
  pos_[moved] = slot;
  bucket.pop_back();
  weighted_.add(degree - 1, -static_cast<std::int64_t>(degree));
  --total_;
}

void DegreeIndex::settle_max() {
  while (max_degree_ > 0 && buckets_[max_degree_].empty()) --max_degree_;
}

void DegreeIndex::remove(PacketId id, std::size_t degree) {
  unlink(id, degree);
  settle_max();
}

void DegreeIndex::change(PacketId id, std::size_t old_degree,
                         std::size_t new_degree) {
  // Settle only after the packet landed in its new bucket, so a packet
  // leaving the top bucket stops the downward scan at its new degree.
  unlink(id, old_degree);
  insert(id, new_degree);
  settle_max();
}

const std::vector<PacketId>& DegreeIndex::bucket(std::size_t degree) const {
  LTNC_CHECK_MSG(degree >= 1 && degree < buckets_.size(),
                 "degree out of range");
  return buckets_[degree];
}

std::uint64_t DegreeIndex::weighted_sum_up_to(std::size_t d) const {
  if (d == 0) return 0;
  if (d > weighted_.size()) d = weighted_.size();
  return static_cast<std::uint64_t>(weighted_.prefix_sum(d - 1));
}

}  // namespace ltnc::core
