#include "svc/job_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "svc/catalog.h"
#include "svc/snapshot.h"
#include "util/logging.h"
#include "util/strings.h"

namespace rap::svc {

namespace {

// Every file starts with one of these lines; new files are version 2.
constexpr std::string_view kMagic = "RAPJRNL ";
constexpr std::string_view kHeaderV1 = "RAPJRNL 1\n";
constexpr std::string_view kHeader = "RAPJRNL 2\n";

/// The version `text` declares: 1 or 2, or 0 for a file cut short inside
/// its header line, which recovers as an empty journal.  A foreign file
/// or another version is an error, so open() never overwrites it.
util::Result<int> journalVersion(std::string_view text,
                                 const std::string& path) {
  const std::size_t nl = text.find('\n');
  if (nl == std::string_view::npos &&
      (kHeader.starts_with(text) || kHeaderV1.starts_with(text))) {
    return 0;
  }
  const std::string_view header = text.substr(0, nl + 1);
  if (header == kHeaderV1) return 1;
  if (header == kHeader) return 2;
  if (text.starts_with(kMagic)) {
    return util::Status::invalidArgument(
        "'" + path + "' is journal version '" +
        std::string(util::trim(text.substr(kMagic.size(),
                                           nl - kMagic.size()))) +
        "'; this build reads RAPJRNL 1 and 2");
  }
  return util::Status::invalidArgument("'" + path +
                                       "' is not a RAPJRNL journal");
}

/// RAPJRNL-1's body hash: one FNV-style multiply chain over 8-byte
/// words, then the tail bytes and the length.  It verifies version 1
/// files only; open() rewrites them as version 2.
std::uint64_t legacyBodyHash(std::string_view bytes) noexcept {
  constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
  constexpr std::uint64_t kFnvPrime = 1099511628211ull;
  std::uint64_t h = kFnvOffset;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof(word));
    h = (h ^ word) * kFnvPrime;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(bytes[i])) * kFnvPrime;
  }
  return hashMix(h, static_cast<std::uint64_t>(bytes.size()));
}

/// A hash field exactly as written: 16 lower-case hex digits.
std::optional<std::uint64_t> parseHash(std::string_view field) {
  if (field.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : field) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return std::nullopt;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  return value;
}

/// A version 2 record line's check: contentHash over the line before
/// its check field, a newline, and the bytes that follow the line (an
/// A record's query; nothing for a C record).
std::uint64_t lineCheck(std::string_view head, std::string_view tail) {
  std::string bytes;
  bytes.reserve(head.size() + 1 + tail.size());
  bytes.append(head);
  bytes += '\n';
  bytes.append(tail);
  return contentHash(bytes);
}

/// `head`, its check, and the line's newline.
std::string withCheck(std::string head, std::string_view tail) {
  const std::uint64_t check = lineCheck(head, tail);
  head += util::strFormat(" %016llx\n", static_cast<unsigned long long>(check));
  return head;
}

util::Status errnoStatus(const std::string& what, const std::string& path) {
  return util::Status::internal(what + " '" + path +
                                "': " + std::strerror(errno));
}

/// Full write with EINTR/partial-write handling.
bool writeAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

JobJournal::JobJournal(Options options) : options_(std::move(options)) {
  if (obs::metricsEnabled()) {
    auto& reg = obs::defaultRegistry();
    appended_ = &reg.counter("rap_svc_journal_appended_total");
    dropped_ = &reg.counter("rap_svc_journal_dropped_total");
  }
}

JobJournal::~JobJournal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) ::close(fd_);
}

util::Result<std::unique_ptr<JobJournal>> JobJournal::open(Options options) {
  if (options.path.empty()) {
    return util::Status::invalidArgument("journal path is empty");
  }
  std::unique_ptr<JobJournal> journal(new JobJournal(std::move(options)));
  std::lock_guard<std::mutex> lock(journal->mutex_);

  std::string text;
  {
    std::ifstream in(journal->options_.path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
  }
  if (!text.empty()) {
    const auto version = journalVersion(text, journal->options_.path);
    if (!version.isOk()) return version.status();
    const std::size_t damaged = journal->recoverLocked(text, *version);
    if (*version == 1) {
      RAP_LOG_KV(Info, {"path", journal->options_.path})
          << "journal is RAPJRNL 1; rewriting it as RAPJRNL 2";
    }
    if (damaged > 0) {
      RAP_LOG_KV(Warn, {"path", journal->options_.path},
                 {"damaged_bytes", damaged})
          << "journal tail damaged (crash mid-append); truncating";
    }
  }
  // Rewriting live records heals any damaged tail and drops completed
  // history, so the append fd below always starts from a clean file.
  RAP_RETURN_IF_ERROR(journal->compactLocked());
  if (journal->dropped_ != nullptr && journal->recovery_dropped_ > 0) {
    journal->dropped_->increment(journal->recovery_dropped_);
  }
  return journal;
}

std::size_t JobJournal::recoverLocked(const std::string& text, int version) {
  if (version == 0) {  // torn header: nothing after it survives
    recovery_dropped_ += 1;
    return text.size();
  }
  // Version 2 lines end in a check field, which must match before any
  // other field of the line is trusted.  Both headers are one length.
  const std::size_t check_fields = version >= 2 ? 1 : 0;
  const auto checked = [check_fields](std::string_view line,
                                      std::string_view tail) {
    const std::size_t space = line.rfind(' ');
    return check_fields == 0 ||
           parseHash(line.substr(space + 1)) ==
               lineCheck(line.substr(0, space), tail);
  };
  std::size_t pos = kHeader.size();
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // unterminated line: damaged tail
    const std::string line = text.substr(pos, nl - pos);
    std::size_t next = nl + 1;

    if (util::startsWith(line, "A ")) {
      const auto fields = util::split(line, ' ');
      if (fields.size() != 8 + check_fields) break;
      const auto id = util::parseInt(fields[1]);
      const auto priority = util::parseInt(fields[3]);
      const auto qlen = util::parseInt(fields[6]);
      const auto blen = util::parseInt(fields[7]);
      // The body hash is a full 64-bit value (can exceed INT64_MAX), so
      // it travels as fixed-width hex rather than through parseInt.
      const auto hash = parseHash(fields[5]);
      if (!id || !priority || !qlen || !blen || *id <= 0 || *qlen < 0 ||
          *blen < 0 || !hash || (fields[4] != "csv" && fields[4] != "json")) {
        break;
      }
      // Both byte runs are length-prefixed and '\n'-framed; anything
      // short of that is the torn tail of a crashed append.
      const auto query_len = static_cast<std::size_t>(*qlen);
      const auto body_len = static_cast<std::size_t>(*blen);
      if (next + query_len >= text.size() || text[next + query_len] != '\n') {
        break;
      }
      std::string query = text.substr(next, query_len);
      next += query_len + 1;
      // A line that fails its check cannot be trusted to frame what
      // follows (nor to name the right id, tenant or query): stop.
      if (!checked(line, query)) break;
      if (next + body_len >= text.size() || text[next + body_len] != '\n') {
        break;
      }
      std::string body = text.substr(next, body_len);
      next += body_len + 1;

      const auto record_id = static_cast<std::uint64_t>(*id);
      next_id_ = std::max(next_id_, record_id + 1);
      if ((version == 1 ? legacyBodyHash(body) : contentHash(body)) != *hash) {
        // Torn or bit-rotted storage: never replay a body we cannot
        // prove is the one that was accepted.
        recovery_dropped_ += 1;
        RAP_LOG_KV(Warn, {"record", record_id})
            << "journal record body hash mismatch; dropped";
      } else {
        Record record;
        record.id = record_id;
        record.tenant = fields[2];
        record.priority = static_cast<std::int32_t>(*priority);
        record.content_type = fields[4];
        record.query = std::move(query);
        record.body = std::move(body);
        live_.emplace(record_id, std::move(record));
      }
    } else if (util::startsWith(line, "C ")) {
      const auto fields = util::split(line, ' ');
      if (fields.size() != 3 + check_fields) break;
      const auto id = util::parseInt(fields[1]);
      if (!id || *id <= 0) break;
      if (!checked(line, {})) break;
      live_.erase(static_cast<std::uint64_t>(*id));
    } else if (!util::trim(line).empty()) {
      break;  // unknown record type: stop before misinterpreting bytes
    }
    pos = next;
  }
  if (pos < text.size()) {
    recovery_dropped_ += 1;
    return text.size() - pos;
  }
  return 0;
}

std::string JobJournal::renderLocked(const Record& record) const {
  std::string out = withCheck(
      util::strFormat(
          "A %llu %s %d %s %016llx %zu %zu",
          static_cast<unsigned long long>(record.id), record.tenant.c_str(),
          record.priority, record.content_type.c_str(),
          static_cast<unsigned long long>(contentHash(record.body)),
          record.query.size(), record.body.size()),
      record.query);
  out += record.query;
  out += '\n';
  out += record.body;
  out += '\n';
  return out;
}

util::Status JobJournal::compactLocked() {
  std::string content(kHeader);
  for (const auto& [id, record] : live_) content += renderLocked(record);

  const std::string tmp = options_.path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return errnoStatus("cannot create", tmp);
  if (!writeAll(fd, content.data(), content.size())) {
    ::close(fd);
    return errnoStatus("cannot write", tmp);
  }
  if (options_.fsync && ::fsync(fd) != 0) {
    ::close(fd);
    return errnoStatus("cannot fsync", tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), options_.path.c_str()) != 0) {
    return errnoStatus("cannot rename into", options_.path);
  }

  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(options_.path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) return errnoStatus("cannot reopen", options_.path);
  file_bytes_ = content.size();
  return util::Status::ok();
}

util::Status JobJournal::writeLocked(const std::string& bytes) {
  if (fd_ < 0) return util::Status::internal("journal file is not open");
  if (!writeAll(fd_, bytes.data(), bytes.size())) {
    return errnoStatus("cannot append to", options_.path);
  }
  if (options_.fsync && ::fsync(fd_) != 0) {
    return errnoStatus("cannot fsync", options_.path);
  }
  file_bytes_ += bytes.size();
  if (options_.compact_bytes > 0 && file_bytes_ > options_.compact_bytes) {
    // Best effort: a failed compaction leaves the (valid, just large)
    // append-only file in place.
    const util::Status compacted = compactLocked();
    if (!compacted.isOk()) {
      RAP_LOG_KV(Warn, {"path", options_.path})
          << "journal compaction failed: " << compacted.toString();
    }
  }
  return util::Status::ok();
}

util::Result<std::uint64_t> JobJournal::append(Record record) {
  RAP_RETURN_IF_ERROR(RAP_FAULT_STATUS("svc.journal.append"));
  std::lock_guard<std::mutex> lock(mutex_);
  record.id = next_id_++;
  const std::uint64_t id = record.id;
  RAP_RETURN_IF_ERROR(writeLocked(renderLocked(record)));
  live_.emplace(id, std::move(record));
  if (appended_ != nullptr) appended_->increment();
  return id;
}

void JobJournal::complete(std::uint64_t record_id, const char* state) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (live_.erase(record_id) == 0) return;
  const util::Status written = writeLocked(withCheck(
      util::strFormat("C %llu %s", static_cast<unsigned long long>(record_id),
                      state),
      {}));
  if (!written.isOk()) {
    // Losing a completion marker is safe (the record replays, the
    // cache serves the stored document); losing the job would not be.
    RAP_LOG_KV(Warn, {"record", record_id})
        << "journal completion not recorded: " << written.toString();
  }
}

std::vector<JobJournal::Record> JobJournal::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Record> out;
  out.reserve(live_.size());
  for (const auto& [id, record] : live_) out.push_back(record);
  return out;
}

std::size_t JobJournal::liveCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_.size();
}

ReplaySummary replayJournal(JobJournal& journal, DatasetCatalog& catalog) {
  ReplaySummary summary;
  obs::Counter* replayed = nullptr;
  obs::Counter* dropped = nullptr;
  if (obs::metricsEnabled()) {
    auto& reg = obs::defaultRegistry();
    replayed = &reg.counter("rap_svc_journal_replayed_total");
    dropped = &reg.counter("rap_svc_journal_dropped_total");
  }

  for (const JobJournal::Record& record : journal.pending()) {
    const char* drop_reason = nullptr;
    if (const util::Status injected = RAP_FAULT_STATUS("svc.journal.replay");
        !injected.isOk()) {
      drop_reason = "injected fault";
    } else if (auto tenant = catalog.find(record.tenant); tenant == nullptr) {
      drop_reason = "unknown tenant";
    } else if (auto job = tenant->service->replayJob(record); !job.isOk()) {
      // A spec change since the crash (schema swap, knob bounds) can
      // invalidate a recorded request; dropping beats aborting startup.
      drop_reason = "not replayable";
    }

    if (drop_reason != nullptr) {
      RAP_LOG_KV(Warn, {"record", record.id}, {"tenant", record.tenant},
                 {"reason", drop_reason})
          << "journal record dropped on replay";
      journal.complete(record.id, "dropped");
      ++summary.dropped;
      if (dropped != nullptr) dropped->increment();
      continue;
    }
    ++summary.replayed;
    if (replayed != nullptr) replayed->increment();
  }
  return summary;
}

}  // namespace rap::svc
