// Durable job journal (src/svc) — a write-ahead log of accepted async
// localization jobs, so `kill -9` mid-queue loses no accepted work.
//
// The serving plane answers 202 the moment a job is admitted; without a
// journal that acknowledgement is a lie across a crash — the queue is
// process memory.  The journal makes the 202 durable: the service
// appends (and fsyncs) an A record BEFORE the job enters the queue, and
// a C record when the job reaches a terminal state.  On restart,
// replayJournal() resubmits every A record without a matching C through
// the same admission-free path; because localization is deterministic
// and the ResultCache key is a content hash over the recorded raw body
// bytes, a replayed job renders the bit-identical result document the
// original admission would have.
//
// Crash-ordering contract: append -> fsync -> admit -> answer 202.  A
// crash between append and admit replays a job the client never got a
// 202 for (harmless at-least-once); a crash after the C record is a
// clean no-op on replay.  An append FAILURE is honest backpressure —
// the service answers 503 `journal_unavailable` instead of accepting
// work it cannot promise to keep.
//
// ## Format (`RAPJRNL 2`, versioned line-based text + raw byte runs)
//
//   RAPJRNL 2
//   A <id> <tenant> <priority> <csv|json> <body_hash> <qlen> <blen> <check>
//   <qlen raw query bytes>\n
//   <blen raw body bytes>\n
//   C <id> <done|failed|shed|dropped> <check>
//
// Bodies contain newlines, so both byte runs are length-prefixed by the
// A line and terminated by one framing '\n'.  `body_hash` is
// svc::contentHash over the body bytes; a mismatch on replay means
// torn/corrupt storage and drops the record (counted, never served).
// `check` is svc::contentHash over the line before it, a '\n' and (A
// only) the query bytes; a line that fails it stops recovery there, as
// its lengths, id, tenant or query cannot be trusted.  A truncated
// tail — the signature of a crash mid-append — is tolerated: parsing
// stops at the damage and every record before it survives.
//
// Version 1 files (no check fields; body_hash the single-chain
// word-FNV hash of earlier builds, kept in the reader only) are still
// read, and open()'s rewrite upgrades them to version 2.  Any other
// version is refused with invalidArgument and left untouched.
//
// open() always rewrites the file to live records only via the
// tmp+rename idiom (same as io/checkpoint.cpp), which both compacts
// the completed history and heals any truncated tail; at runtime the
// file is compacted again whenever it outgrows `compact_bytes`.
//
// Thread-safe (one mutex; appends are rare next to localizations).
// Metrics: rap_svc_journal_appended_total / _replayed_total /
// _dropped_total (process-wide — the journal is shared by every
// tenant; record ids are unique across the process).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace rap::obs {
class Counter;
}  // namespace rap::obs

namespace rap::svc {

class DatasetCatalog;

class JobJournal {
 public:
  struct Options {
    /// Journal file path; the directory must exist.
    std::string path;
    /// Rewrite live records (tmp+rename) when the file exceeds this
    /// many bytes; 0 never compacts at runtime.
    std::size_t compact_bytes = 8u << 20;
    /// fsync after every append/complete.  Tests may disable it; the
    /// durability contract requires it on.
    bool fsync = true;
  };

  /// One accepted-but-not-terminal job, exactly as admitted.
  struct Record {
    std::uint64_t id = 0;
    std::string tenant;
    std::int32_t priority = 0;
    std::string content_type;  ///< "csv" or "json"
    std::string query;         ///< raw query string of the admission
    std::string body;          ///< raw request body bytes
  };

  /// Opens (creating if absent) the journal at options.path, recovers
  /// its live records, and compacts the file.  Records whose body hash
  /// does not verify are dropped and counted.
  static util::Result<std::unique_ptr<JobJournal>> open(Options options);

  ~JobJournal();

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Appends one accepted job (record.id is assigned, the file is
  /// fsync'd) and returns the record id.  Fault point
  /// "svc.journal.append" fails the append -> the service sheds the
  /// request instead of accepting non-durable work.
  util::Result<std::uint64_t> append(Record record);

  /// Marks a record terminal ("done", "failed", "shed", "dropped").
  /// Unknown ids are ignored (a compaction may have raced a late
  /// completion).
  void complete(std::uint64_t record_id, const char* state);

  /// Live (appended, not completed) records in id order — the replay
  /// set at open() time, plus anything appended since.
  std::vector<Record> pending() const;

  std::size_t liveCount() const;
  /// Records dropped during recovery (hash mismatch / damaged tail).
  std::uint64_t recoveryDropped() const noexcept { return recovery_dropped_; }
  const Options& options() const noexcept { return options_; }

 private:
  explicit JobJournal(Options options);

  util::Status writeLocked(const std::string& bytes);
  std::string renderLocked(const Record& record) const;
  util::Status compactLocked();
  /// Parses `text`, a journal of `version` (0 = torn header), into
  /// live_/next_id_; returns bytes of damaged tail dropped (0 = clean
  /// file).
  std::size_t recoverLocked(const std::string& text, int version);

  Options options_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  std::size_t file_bytes_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t recovery_dropped_ = 0;
  std::map<std::uint64_t, Record> live_;

  obs::Counter* appended_ = nullptr;  ///< rap_svc_journal_appended_total
  obs::Counter* dropped_ = nullptr;   ///< rap_svc_journal_dropped_total
};

/// Replays every pending record of `journal` into `catalog`: resolves
/// the tenant, re-derives the job from the recorded query + body, and
/// resubmits it through the admission-free replay path (capacity and
/// overload checks do not apply — the work was already accepted).
/// Records that cannot be replayed (unknown tenant, malformed after a
/// config change, "svc.journal.replay" fault) are completed as
/// "dropped" and counted.  Returns (replayed, dropped).
struct ReplaySummary {
  std::size_t replayed = 0;
  std::size_t dropped = 0;
};
ReplaySummary replayJournal(JobJournal& journal, DatasetCatalog& catalog);

}  // namespace rap::svc
