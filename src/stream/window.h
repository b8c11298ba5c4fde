// Window assembly: turning per-shard window fragments into whole sealed
// windows.
//
// Each shard buffers its hash-partition of the stream per epoch; when
// the watermark passes a window's end the shard hands its fragment to
// the WindowAssembler and promises (sealShardUpTo) that no further
// fragment at or below that epoch will follow.  A window is ready once
// EVERY shard has sealed past it — the assembler then releases windows
// in strictly increasing epoch order, which is what keeps the
// aggregate-KPI alarm's seasonal phase arithmetic honest downstream.
//
// Fragments arrive sorted in canonical order (canonicalLess).  The
// assembler only keeps them, in contribution order, so a shard's hand-off
// costs O(1) under its lock; the sealer merges a released window's
// fragments once, k-way, straight into the window's table (sealedTable).
//
//   shard 0 ─ sorted fragment ─┐
//   shard 1 ─ sorted fragment ─┼─> WindowAssembler ─ popReady ─> sealer:
//     ...                      │   (appends per epoch)   sealedTable =
//   shard k-1 ─ sorted frag. ──┘                         loser-tree merge
//                                                        -> LeafTable
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "dataset/leaf_table.h"
#include "stream/event.h"

namespace rap::stream {

/// One fully assembled event-time window, before detection.
struct SealedWindow {
  std::int64_t epoch = 0;
  std::int64_t start_ts = 0;  ///< inclusive
  std::int64_t end_ts = 0;    ///< exclusive
  /// The contributed fragments in contribution order, each in canonical
  /// order; sealedTable merges them.
  std::vector<std::vector<LeafEvent>> fragments;
  /// Shard ids that contributed fragments, ascending; -1 entries come
  /// from checkpoint-restored fragments whose origin is gone.  The
  /// sealer terminates each shard's trace flow against this list.
  std::vector<std::int32_t> contributors;
  /// Wall clock of the first fragment contribution for this epoch — the
  /// start of the rap_stream_window_e2e_seconds pipeline-latency clock.
  std::chrono::steady_clock::time_point first_seen{};

  std::size_t rowCount() const noexcept;
};

/// Trace-flow id for one window's hop between pipeline stages.  Lane 0
/// is the sealer -> localize-pool hop; lane (shard + 1) is shard
/// `shard`'s seal -> sealer hop.  Flow events sharing (name, id) chain
/// into one Perfetto arrow sequence, so every id folds in the epoch.
constexpr std::uint64_t windowFlowId(std::int64_t epoch,
                                     std::int32_t lane) noexcept {
  return (static_cast<std::uint64_t>(epoch) << 9) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(lane)) &
          0x1ffu);
}

/// The flow name every window hop is emitted under (see windowFlowId).
inline constexpr const char* kWindowFlowName = "stream/window";

/// Thread-safe collector of shard fragments.  Epochs with no rows are
/// skipped entirely (a sparse stream produces no empty windows, matching
/// the batch grouping of the same events).
class WindowAssembler {
 public:
  WindowAssembler(std::int32_t shard_count, std::int64_t window_width);

  WindowAssembler(const WindowAssembler&) = delete;
  WindowAssembler& operator=(const WindowAssembler&) = delete;

  /// Appends one shard's fragment for `epoch`, which must be sorted by
  /// canonicalLess, to the epoch's pending fragments; nothing is merged
  /// here.  Must happen before that shard seals past the epoch.  `shard`
  /// identifies the contributor for trace correlation; pass -1 for
  /// fragments restored from a checkpoint (their producing shard no
  /// longer exists).
  void contribute(std::int32_t shard, std::int64_t epoch,
                  std::vector<LeafEvent> rows);

  /// Shard `shard` promises no further contribute() at epoch <= `epoch`.
  /// Monotone per shard (lower values are ignored).
  void sealShardUpTo(std::int32_t shard, std::int64_t epoch);

  /// Lowest-epoch window every shard has sealed past, or nullopt.
  /// Windows are released in strictly increasing epoch order.
  std::optional<SealedWindow> popReady();

  bool hasReady() const;

  /// min over shards of their sealed-up-to epoch (WatermarkTracker::kNone
  /// while any shard has not sealed anything yet).
  std::int64_t sealedUpTo() const;

  /// Every pending (partially sealed) epoch's fragments merged into one
  /// canonical run, as sealedTable orders them, for checkpoints.
  std::map<std::int64_t, std::vector<LeafEvent>> snapshotPending() const;

 private:
  struct Pending {
    std::vector<std::vector<LeafEvent>> fragments;  ///< contribution order
    std::vector<std::int32_t> contributors;
    std::chrono::steady_clock::time_point first_seen{};
  };

  std::optional<SealedWindow> popReadyLocked();

  const std::int64_t window_width_;

  mutable std::mutex mutex_;
  std::map<std::int64_t, Pending> pending_;
  std::vector<std::int64_t> shard_sealed_;  ///< per shard, kNone initially
};

/// The leaf table of a sealed window: its sorted fragments merged into
/// canonical order, ties going to the earlier fragment (so the rows are
/// std::stable_sort of the fragments' concatenation), each packed leaf
/// key appended as it is, every verdict false until detection runs.
/// The merge is a loser tree: ceil(log2 k) comparisons per row for k
/// fragments.
dataset::LeafTable sealedTable(
    const dataset::Schema& schema,
    std::span<const std::vector<LeafEvent>> fragments);

}  // namespace rap::stream
