#include "stream/window.h"

#include <algorithm>
#include <bit>

#include "stream/watermark.h"
#include "util/status.h"

namespace rap::stream {

namespace {

/// Loser (tournament) tree over sorted fragments.  Bottom slot i of a
/// complete binary tree holds fragment i's head; each internal node keeps
/// the loser of the match played there and the overall winner travels
/// up, so replacing the winner's head replays only its path: ceil(log2 k)
/// matches per row.  A head beats another when it is canonically
/// smaller, or equal and from an earlier fragment; an exhausted fragment
/// loses to every head.  Entries carry their head's packed leaf key, so a
/// match between different leaves (nearly every match: ingest routes
/// each leaf to one shard) reads no row.
class FragmentMerger {
 public:
  explicit FragmentMerger(std::span<const std::vector<LeafEvent>> fragments)
      : width_(std::bit_ceil(fragments.size())),
        heads_(width_),
        losers_(width_) {
    for (std::size_t i = 0; i < fragments.size(); ++i) {
      heads_[i] = {fragments[i].data(),
                   fragments[i].data() + fragments[i].size()};
      rows_ += fragments[i].size();
    }
  }

  std::size_t rows() const noexcept { return rows_; }

  /// Calls emit(row) for every row, in merged order.
  template <typename Emit>
  void run(Emit&& emit) {
    if (rows_ == 0) return;
    Entry winner = play(1);
    for (std::size_t left = rows_; left > 0; --left) {
      Head& head = heads_[winner.fragment];
      emit(*head.at++);
      winner.key = headKey(head);
      for (std::size_t node = (width_ + winner.fragment) / 2; node > 0;
           node /= 2) {
        const Entry other = losers_[node];
        if (beats(other, winner)) {
          losers_[node] = winner;
          winner = other;
        }
      }
    }
  }

 private:
  struct Head {
    const LeafEvent* at = nullptr;
    const LeafEvent* end = nullptr;
  };
  struct Entry {
    std::uint64_t key = 0;  ///< the head's leaf key; kExhausted past the end
    std::uint32_t fragment = 0;
  };
  static constexpr std::uint64_t kExhausted = ~std::uint64_t{0};

  static std::uint64_t headKey(const Head& head) noexcept {
    return head.at == head.end ? kExhausted : head.at->leaf;
  }

  bool beats(Entry a, Entry b) const noexcept {
    if (a.key != b.key) return a.key < b.key;
    // Equal keys: a tie on the leaf, or an exhausted fragment against a
    // head whose leaf key happens to be kExhausted.
    const Head& x = heads_[a.fragment];
    const Head& y = heads_[b.fragment];
    if (x.at == x.end) return false;
    if (y.at == y.end) return true;
    return a.fragment < b.fragment ? !canonicalLess(*y.at, *x.at)
                                   : canonicalLess(*x.at, *y.at);
  }

  /// Plays the matches of the subtree under `node`; returns its winner.
  Entry play(std::size_t node) {
    if (node >= width_) {
      const auto fragment = static_cast<std::uint32_t>(node - width_);
      return {headKey(heads_[fragment]), fragment};
    }
    const Entry left = play(2 * node);
    const Entry right = play(2 * node + 1);
    const bool left_wins = beats(left, right);
    losers_[node] = left_wins ? right : left;
    return left_wins ? left : right;
  }

  const std::size_t width_;  ///< fragment count rounded up to a power of 2
  std::vector<Head> heads_;
  std::vector<Entry> losers_;  ///< by node; node 1 is the root
  std::size_t rows_ = 0;
};

}  // namespace

std::size_t SealedWindow::rowCount() const noexcept {
  std::size_t rows = 0;
  for (const auto& fragment : fragments) rows += fragment.size();
  return rows;
}

WindowAssembler::WindowAssembler(std::int32_t shard_count,
                                 std::int64_t window_width)
    : window_width_(window_width),
      shard_sealed_(static_cast<std::size_t>(shard_count),
                    WatermarkTracker::kNone) {
  RAP_CHECK(shard_count >= 1);
  RAP_CHECK(window_width >= 1);
}

void WindowAssembler::contribute(std::int32_t shard, std::int64_t epoch,
                                 std::vector<LeafEvent> rows) {
  if (rows.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = pending_.try_emplace(epoch);
  Pending& slot = it->second;
  if (inserted) {
    slot.first_seen = std::chrono::steady_clock::now();
    slot.fragments.reserve(shard_sealed_.size());
    slot.contributors.reserve(shard_sealed_.size());
  }
  slot.fragments.push_back(std::move(rows));
  slot.contributors.push_back(shard);
}

void WindowAssembler::sealShardUpTo(std::int32_t shard, std::int64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& sealed = shard_sealed_[static_cast<std::size_t>(shard)];
  sealed = std::max(sealed, epoch);
}

std::int64_t WindowAssembler::sealedUpTo() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return *std::min_element(shard_sealed_.begin(), shard_sealed_.end());
}

std::map<std::int64_t, std::vector<LeafEvent>>
WindowAssembler::snapshotPending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::int64_t, std::vector<LeafEvent>> out;
  for (const auto& [epoch, pending] : pending_) {
    std::vector<LeafEvent>& rows = out[epoch];
    FragmentMerger merger(pending.fragments);
    rows.reserve(merger.rows());
    merger.run([&rows](const LeafEvent& row) { rows.push_back(row); });
  }
  return out;
}

std::optional<SealedWindow> WindowAssembler::popReadyLocked() {
  if (pending_.empty()) return std::nullopt;
  const std::int64_t ready_up_to =
      *std::min_element(shard_sealed_.begin(), shard_sealed_.end());
  auto first = pending_.begin();
  if (ready_up_to == WatermarkTracker::kNone || first->first > ready_up_to) {
    return std::nullopt;
  }
  SealedWindow window;
  window.epoch = first->first;
  window.start_ts = first->first * window_width_;
  window.end_ts = window.start_ts + window_width_;
  window.fragments = std::move(first->second.fragments);
  window.contributors = std::move(first->second.contributors);
  window.first_seen = first->second.first_seen;
  std::sort(window.contributors.begin(), window.contributors.end());
  pending_.erase(first);
  return window;
}

std::optional<SealedWindow> WindowAssembler::popReady() {
  std::lock_guard<std::mutex> lock(mutex_);
  return popReadyLocked();
}

bool WindowAssembler::hasReady() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pending_.empty()) return false;
  const std::int64_t ready_up_to =
      *std::min_element(shard_sealed_.begin(), shard_sealed_.end());
  return ready_up_to != WatermarkTracker::kNone &&
         pending_.begin()->first <= ready_up_to;
}

dataset::LeafTable sealedTable(
    const dataset::Schema& schema,
    std::span<const std::vector<LeafEvent>> fragments) {
  dataset::LeafTable table(schema);
  FragmentMerger merger(fragments);
  table.reserve(merger.rows());
  merger.run([&table](const LeafEvent& row) {
    table.addKey(row.leaf, row.v, row.f, /*anomalous=*/false);
  });
  return table;
}

}  // namespace rap::stream
