// Bin-sort priority structures keyed by vertex degree (§3.2 of the paper).
//
// Degrees are integers in [0, n], so a bucket per degree value gives O(1)
// updates and amortized O(n) extraction over a whole run:
//
//  * BucketQueue        — doubly-linked, eagerly updated; supports PopMin
//                         and PopMax even when keys *increase* (BDTwo's
//                         contractions can grow degrees), plus arbitrary
//                         Remove. Used by BDTwo, DU and SemiE.
//  * LazyMaxBucketQueue — the paper's optimized variant: singly-linked
//                         (2n space), entries carry a possibly stale key
//                         and are sifted down lazily at pop time. Valid
//                         whenever keys only decrease, which holds for
//                         BDOne / LinearTime / NearLinear peeling.
#ifndef RPMIS_DS_BUCKET_QUEUE_H_
#define RPMIS_DS_BUCKET_QUEUE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "support/assert.h"

namespace rpmis {

/// Doubly-linked bucket priority queue over vertices [0, n) with integer
/// keys in [0, max_key]. All operations O(1) except the pops, which advance
/// a cached bound pointer (amortized O(max_key) over a run of monotone
/// pops, O(1) otherwise).
class BucketQueue {
 public:
  /// Creates an empty queue able to hold vertices [0, n) with keys
  /// in [0, max_key].
  BucketQueue(Vertex n, uint32_t max_key);

  /// Builds a queue containing all of [0, keys.size()) with the given keys.
  static BucketQueue FromKeys(std::span<const uint32_t> keys, uint32_t max_key);

  bool Empty() const { return size_ == 0; }
  Vertex Size() const { return size_; }
  bool Contains(Vertex v) const { return in_queue_[v] != 0; }
  uint32_t KeyOf(Vertex v) const { return key_[v]; }

  void Insert(Vertex v, uint32_t key);
  void Remove(Vertex v);

  /// Changes v's key (v must be in the queue). Works for both increases
  /// and decreases.
  void Update(Vertex v, uint32_t key);

  /// Removes and returns a vertex with the minimum / maximum key.
  /// The queue must be non-empty.
  Vertex PopMin();
  Vertex PopMax();

  /// Current minimum / maximum key (queue must be non-empty).
  uint32_t MinKey();
  uint32_t MaxKey();

 private:
  static constexpr Vertex kNil = kInvalidVertex;

  void LinkFront(Vertex v, uint32_t key);
  void UnlinkNode(Vertex v);
  void SettleMin();
  void SettleMax();

  std::vector<Vertex> bucket_head_;  // per key
  std::vector<Vertex> prev_, next_;  // per vertex
  std::vector<uint32_t> key_;
  std::vector<uint8_t> in_queue_;
  uint32_t min_bound_;  // <= true min of any contained key
  uint32_t max_bound_;  // >= true max of any contained key
  Vertex size_ = 0;
};

/// Singly-linked lazy max-queue (the paper's peeling structure).
///
/// Keys may go stale: the structure records the key a vertex had when it
/// was (re)inserted. At pop time the caller supplies the *current* key and
/// liveness through callbacks; a popped entry whose key shrank is silently
/// reinserted in its true bucket, and dead entries are discarded. Correct
/// as long as true keys never exceed their recorded values, i.e. keys are
/// non-increasing over time.
class LazyMaxBucketQueue {
 public:
  /// Builds the queue holding every vertex in [0, keys.size()).
  explicit LazyMaxBucketQueue(std::span<const uint32_t> keys);

  /// Pops the vertex with the (lazily maintained) maximum current key.
  /// `current_key(v)` -> uint32_t, `alive(v)` -> bool. Returns
  /// kInvalidVertex when no alive entry remains.
  template <typename KeyFn, typename AliveFn>
  Vertex PopMax(KeyFn current_key, AliveFn alive) {
    while (true) {
      while (max_bound_ != kNoBucket && bucket_head_[max_bound_] == kInvalidVertex) {
        if (max_bound_ == 0) {
          max_bound_ = kNoBucket;
          break;
        }
        --max_bound_;
      }
      if (max_bound_ == kNoBucket) return kInvalidVertex;
      const Vertex v = bucket_head_[max_bound_];
      bucket_head_[max_bound_] = next_[v];
      if (!alive(v)) continue;
      const uint32_t key = current_key(v);
      RPMIS_DASSERT(key <= max_bound_);
      if (key == max_bound_) return v;
      // Stale entry: sift down to its true bucket (lazy update).
      next_[v] = bucket_head_[key];
      bucket_head_[key] = v;
    }
  }

  /// Rebuilds the queue over the renamed universe [0, new_n): entries
  /// whose vertex maps to kInvalidVertex are discarded now — exactly the
  /// entries a later PopMax would have skipped as dead. Surviving entries
  /// keep their bucket (stale entries stay stale) and their position, so
  /// the pop sequence is unchanged. Keys only decrease, so the bucket
  /// array also shrinks to the settled upper bound.
  void Renumber(Vertex new_n, std::span<const Vertex> to_new);

 private:
  static constexpr uint32_t kNoBucket = static_cast<uint32_t>(-1);

  std::vector<Vertex> bucket_head_;
  std::vector<Vertex> next_;
  uint32_t max_bound_;
};

}  // namespace rpmis

#endif  // RPMIS_DS_BUCKET_QUEUE_H_
