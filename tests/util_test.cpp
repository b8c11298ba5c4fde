#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "util/alloc_probe.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/timer.h"

namespace rap::util {
namespace {

// ---------------------------------------------------------------- Status

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.isOk());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.toString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = Status::invalidArgument("bad flag");
  EXPECT_FALSE(s.isOk());
  EXPECT_FALSE(static_cast<bool>(s));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad flag");
  EXPECT_EQ(s.toString(), "INVALID_ARGUMENT: bad flag");
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::notFound("x"), Status::notFound("x"));
  EXPECT_FALSE(Status::notFound("x") == Status::notFound("y"));
  EXPECT_FALSE(Status::notFound("x") == Status::internal("x"));
}

TEST(Status, AllCodesHaveNames) {
  for (const auto code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kUnimplemented}) {
    EXPECT_STRNE(statusCodeName(code), "UNKNOWN");
  }
}

// ---------------------------------------------------------------- Result

TEST(Result, HoldsValue) {
  const Result<int> r = 42;
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.valueOr(-1), 42);
  EXPECT_TRUE(r.status().isOk());
}

TEST(Result, HoldsError) {
  const Result<int> r = Status::notFound("missing");
  ASSERT_FALSE(r.isOk());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.valueOr(-1), -1);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

TEST(Result, ArrowOperator) {
  const Result<std::string> r = std::string("abc");
  EXPECT_EQ(r->size(), 3u);
}

// --------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, JoinInverseOfSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(split(join(parts, ","), ','), parts);
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Strings, TrimRemovesOuterWhitespaceOnly) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\n x \r"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("none"), "none");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("foobar", "bar"));
  EXPECT_TRUE(endsWith("foobar", "bar"));
  EXPECT_FALSE(endsWith("foobar", "foo"));
  EXPECT_TRUE(startsWith("x", ""));
  EXPECT_FALSE(startsWith("", "x"));
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(parseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(parseDouble(" -2e3 ").value(), -2000.0);
  EXPECT_FALSE(parseDouble("abc").isOk());
  EXPECT_FALSE(parseDouble("1.5x").isOk());
  EXPECT_FALSE(parseDouble("").isOk());
}

/// parseDouble's contract spelled out with strtod alone: the trimmed
/// field, whole, no ERANGE.
Result<double> strtodReference(std::string_view text) {
  const std::string buf{trim(text)};
  if (buf.empty()) return Status::invalidArgument("empty number");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::outOfRange("number out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::invalidArgument("not a number: '" + buf + "'");
  }
  return value;
}

/// Empty when parseDoubleFast and parseDouble both agree with strtod on
/// `spelling` bit for bit (or parseDouble rejects it as strtod does,
/// with the same code and message); else what differed.  The parsers
/// see the spelling in a heap block of exactly its size, so a read past
/// the view is a sanitizer error.
std::string strtodMismatch(const std::string& spelling) {
  const std::size_t n = spelling.size();
  const auto exact = std::make_unique<char[]>(n == 0 ? 1 : n);
  std::copy(spelling.begin(), spelling.end(), exact.get());
  const std::string_view view(exact.get(), n);
  const auto want = strtodReference(spelling);
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  double fast = 0.0;
  if (parseDoubleFast(view, &fast) &&
      (!want.isOk() || bits(fast) != bits(want.value()))) {
    return "parseDoubleFast accepted '" + spelling + "'";
  }
  const auto got = parseDouble(view);
  if (got.isOk() != want.isOk()) {
    return "accept set differs on '" + spelling + "'";
  }
  if (want.isOk() ? bits(got.value()) != bits(want.value())
                  : got.status().code() != want.status().code() ||
                        got.status().message() != want.status().message()) {
    return "result differs on '" + spelling + "'";
  }
  return {};
}

/// Counts mismatches over `spellings`, reporting the first few.
template <typename Spellings>
int countStrtodMismatches(const Spellings& spellings) {
  int mismatches = 0;
  for (const std::string& spelling : spellings) {
    const std::string why = strtodMismatch(spelling);
    if (why.empty()) continue;
    if (++mismatches <= 5) ADD_FAILURE() << why;
  }
  return mismatches;
}

TEST(Strings, ParseDoubleFastAgreesWithStrtodOnNamedEdges) {
  const std::vector<std::string> edges = {
      ".5", "5.", ".", "-", "-0", "0", "-0.", "-.0", "-.", "..5", "1..2",
      "00000000", "-00000000", "99999999", "-99999999", "1234567.",
      ".1234567", "-.1234567", "0.000001", "28.6771", "-28.6771", "1e5",
      "+1", " 1", "1 ", "-+1", "1-", "--1", "",
      // Nine bytes: one past the short-decimal shape.
      "123456789", "1234567.8", ".12345678", "12345678.", "-123456789",
      "000000000", "0.0000000"};
  EXPECT_EQ(countStrtodMismatches(edges), 0);
  // A '-' in front of a zero keeps its sign bit, on either path.
  for (const char* zero : {"-0", "-0.0", "-.0", "-00000000", "-0."}) {
    const auto parsed = parseDouble(zero);
    ASSERT_TRUE(parsed.isOk()) << zero;
    EXPECT_EQ(parsed.value(), 0.0) << zero;
    EXPECT_TRUE(std::signbit(parsed.value())) << zero;
    double value = 1.0;
    if (parseDoubleFast(zero, &value)) {
      EXPECT_TRUE(std::signbit(value)) << zero;
    }
  }
  double value = 0.0;
  ASSERT_TRUE(parseDoubleFast("28.6771", &value));
  EXPECT_EQ(value, 28.6771);
}

TEST(Strings, ParseDoubleFastAgreesWithStrtodOnEveryShortSpelling) {
  // Every spelling of at most five characters over the number alphabet.
  constexpr std::string_view kAlphabet = "0123456789.-+e";
  std::vector<std::string> spellings = {""};
  for (std::size_t from = 0, length = 1; length <= 5; ++length) {
    const std::size_t to = spellings.size();
    for (std::size_t i = from; i < to; ++i) {
      for (const char c : kAlphabet) spellings.push_back(spellings[i] + c);
    }
    from = to;
  }
  ASSERT_EQ(spellings.size(), 579195u);  // sum of 14^k, k = 0..5
  EXPECT_EQ(countStrtodMismatches(spellings), 0);
}

TEST(Strings, ParseDoubleFastAgreesWithStrtodOnRandomSpellings) {
  // Up to ten bytes, mostly digits, '.' and '-' (the short-decimal
  // shape and its near misses), sometimes anything else a field holds.
  constexpr char kRare[] = {'+', 'e', 'E', ' ', 'x', 'n', '\0', 'i', ','};
  std::uint64_t rng = 20220627;
  std::vector<std::string> spellings;
  spellings.reserve(4096);
  int mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    std::string spelling;
    const std::uint64_t length = splitmix64(rng) % 11;
    for (std::uint64_t c = 0; c < length; ++c) {
      const std::uint64_t draw = splitmix64(rng);
      const std::uint64_t pick = draw % 100;
      if (pick < 80) {
        spelling += static_cast<char>('0' + (draw >> 8) % 10);
      } else if (pick < 90) {
        spelling += '.';
      } else if (pick < 96) {
        spelling += '-';
      } else {
        spelling += kRare[(draw >> 8) % sizeof(kRare)];
      }
    }
    spellings.push_back(std::move(spelling));
    if (spellings.size() == 4096) {
      mismatches += countStrtodMismatches(spellings);
      spellings.clear();
    }
  }
  mismatches += countStrtodMismatches(spellings);
  EXPECT_EQ(mismatches, 0);
}

TEST(Strings, ParseDoubleFastAgreesWithStrtodOnRenderedDoubles) {
  // %.1g .. %.17g of random doubles: every bit pattern, and KPI-sized
  // values (what snapshots print at %.6g).
  std::uint64_t rng = 918273;
  std::vector<std::string> spellings;
  char buf[64];
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t draw = splitmix64(rng);
    double value = std::bit_cast<double>(draw);
    if (i % 2 == 1) {
      value = static_cast<double>(draw >> 11) * 0x1p-53 * 2000.0 - 1000.0;
    }
    for (int precision = 1; precision <= 17; ++precision) {
      std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
      spellings.emplace_back(buf);
    }
  }
  EXPECT_EQ(countStrtodMismatches(spellings), 0);
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(parseInt("42").value(), 42);
  EXPECT_EQ(parseInt(" -7 ").value(), -7);
  EXPECT_FALSE(parseInt("4.2").isOk());
  EXPECT_FALSE(parseInt("x").isOk());
  EXPECT_FALSE(parseInt("").isOk());
  EXPECT_FALSE(parseInt("99999999999999999999999").isOk());
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(strFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(strFormat("%.2f", 1.5), "1.50");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(toLower("MiXeD"), "mixed");
  EXPECT_EQ(toLower(""), "");
}

TEST(Strings, EscapeJson) {
  EXPECT_EQ(escapeJson("plain"), "plain");
  EXPECT_EQ(escapeJson("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escapeJson("back\\slash"), "back\\\\slash");
  EXPECT_EQ(escapeJson("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(escapeJson(std::string(1, '\x01')), "\\u0001");
  // Short forms for backspace and form feed, \u00XX for the rest.
  EXPECT_EQ(escapeJson("a\bb\fc"), "a\\bb\\fc");
  EXPECT_EQ(escapeJson(std::string(1, '\x1f')), "\\u001f");
}

TEST(JsonWriter, NumberFormatsFieldsAndEmbed) {
  EXPECT_EQ(formatNumber(1.5, NumberFormat::kFixed6), "1.500000");
  EXPECT_EQ(formatNumber(0.0, NumberFormat::kFixed3), "0.000");
  EXPECT_EQ(formatNumber(2.5, NumberFormat::kFixed0), "2");
  EXPECT_EQ(formatNumber(1.0 / 3.0, NumberFormat::kG9), "0.333333333");
  EXPECT_EQ(formatNumber(1.0 / 3.0, NumberFormat::kG12), "0.333333333333");
  EXPECT_EQ(formatNumber(1234567890.0, NumberFormat::kMetric), "1234567890");
  EXPECT_EQ(formatNumber(1e15, NumberFormat::kMetric), "1e+15");
  EXPECT_EQ(formatNumber(1e300, NumberFormat::kFixed3).size(), 305u);
  EXPECT_EQ(formatNumber(-1.0 / 0.0, NumberFormat::kMetric), "-inf");

  JsonWriter w;
  w.beginObject();
  w.field("n", 3);
  w.field("u", std::uint64_t{18446744073709551615ull});
  w.field("x", 0.25, NumberFormat::kFixed3);
  w.field("nan", std::nan(""), NumberFormat::kFixed6);
  w.beginArray("fields");
  w.beginObject();
  w.field(LogField("i", -2));
  w.field(LogField("d", 1234567890.0));
  w.field(LogField("b", true));
  w.field(LogField("s", "q\""));
  w.endObject();
  w.endArray();
  w.key("doc");
  w.embed("{\"a\":[1]}");
  w.endObject();
  EXPECT_EQ(std::move(w).str(),
            "{\"n\":3,\"u\":18446744073709551615,\"x\":0.250,\"nan\":null,"
            "\"fields\":[{\"i\":-2,\"d\":1.23456789e+09,\"b\":true,"
            "\"s\":\"q\\\"\"}],\"doc\":{\"a\":[1]}}");
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(19);
  const auto sample = rng.sampleIndices(100, 20);
  ASSERT_EQ(sample.size(), 20u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto idx : sample) EXPECT_LT(idx, 100u);
}

TEST(Rng, SampleAllIsPermutation) {
  Rng rng(23);
  auto sample = rng.sampleIndices(10, 10);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  const std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ForkIsIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork();
  EXPECT_NE(parent.next(), child.next());
}

TEST(Rng, LogNormalPositive) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.logNormal(1.0, 0.8), 0.0);
}

// ----------------------------------------------------------------- timer

TEST(TimingStats, EmptyIsZero) {
  const TimingStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.total(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 0.0);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 0.0);
}

TEST(TimingStats, Aggregates) {
  TimingStats stats;
  for (const double s : {0.1, 0.2, 0.3, 0.4}) stats.add(s);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_NEAR(stats.total(), 1.0, 1e-12);
  EXPECT_NEAR(stats.mean(), 0.25, 1e-12);
  EXPECT_NEAR(stats.min(), 0.1, 1e-12);
  EXPECT_NEAR(stats.max(), 0.4, 1e-12);
  EXPECT_NEAR(stats.percentile(0.5), 0.2, 1e-12);
  EXPECT_NEAR(stats.percentile(1.0), 0.4, 1e-12);
}

TEST(TimingStats, PercentileEdgeCases) {
  // Empty distribution: every quantile is defined as 0.
  const TimingStats empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(2.0), 0.0);

  // Single sample: every quantile is that sample.
  TimingStats one;
  one.add(0.7);
  EXPECT_DOUBLE_EQ(one.percentile(0.0), 0.7);
  EXPECT_DOUBLE_EQ(one.percentile(0.5), 0.7);
  EXPECT_DOUBLE_EQ(one.percentile(1.0), 0.7);

  // q outside [0, 1] clamps to min/max instead of indexing out of range.
  TimingStats many;
  for (const double s : {0.1, 0.2, 0.3}) many.add(s);
  EXPECT_DOUBLE_EQ(many.percentile(-0.5), 0.1);
  EXPECT_DOUBLE_EQ(many.percentile(0.0), 0.1);
  EXPECT_DOUBLE_EQ(many.percentile(1.0), 0.3);
  EXPECT_DOUBLE_EQ(many.percentile(1.5), 0.3);

  // NaN is treated like an out-of-range low quantile, not UB.
  EXPECT_DOUBLE_EQ(many.percentile(std::nan("")), 0.1);
}

TEST(TimingStats, PercentileInterleavedWithAddStaysCorrect) {
  // Regression for the lazily sorted scratch: add() must invalidate the
  // cached order so quantiles after an interleaved add see the new
  // sample, and repeated reads between adds reuse the cache coherently.
  TimingStats stats;
  stats.add(0.3);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 0.3);
  stats.add(0.1);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 0.1);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 0.1);
  stats.add(0.2);
  EXPECT_DOUBLE_EQ(stats.percentile(0.5), 0.2);
  EXPECT_DOUBLE_EQ(stats.percentile(1.0), 0.3);
  EXPECT_DOUBLE_EQ(stats.percentile(0.0), 0.1);
}

TEST(TimingStats, AccessorsAreNoexcept) {
  // The audit satellite in code form: every accessor is noexcept, which
  // is only honest if none of them can allocate (an allocation failure
  // under noexcept goes straight to std::terminate).
  using C = const TimingStats&;
  static_assert(noexcept(std::declval<C>().count()));
  static_assert(noexcept(std::declval<C>().empty()));
  static_assert(noexcept(std::declval<C>().total()));
  static_assert(noexcept(std::declval<C>().mean()));
  static_assert(noexcept(std::declval<C>().min()));
  static_assert(noexcept(std::declval<C>().max()));
  static_assert(noexcept(std::declval<C>().percentile(0.5)));
  static_assert(noexcept(std::declval<C>().samples()));
  // add() allocates by design and must therefore NOT be noexcept.
  static_assert(!noexcept(std::declval<TimingStats&>().add(0.0)));
}

TEST(TimingStats, NoexceptAccessorsDoNotAllocate) {
  // util_test links the alloc_probe hook specifically for this check:
  // percentile() used to sort a fresh copy of the samples under its
  // noexcept, where a bad_alloc would have terminated the process.  Now
  // every accessor must run allocation-free against the scratch that
  // add() pre-reserved — including the first percentile() after an
  // add(), which re-sorts in place.
  TimingStats stats;
  for (int i = 0; i < 1000; ++i) {
    stats.add(static_cast<double>((i * 31) % 97) / 100.0);
  }
  stats.percentile(0.5);  // warm the cache...
  stats.add(0.42);        // ...then invalidate it (add may allocate)
  allocProbeArm();
  // First percentile() after an add: re-sorts into the pre-reserved
  // scratch — the exact path that used to copy-and-sort fresh storage.
  double acc = stats.percentile(0.25) + stats.percentile(0.5) +
               stats.percentile(0.99);
  acc += stats.total() + stats.mean() + stats.min() + stats.max();
  const std::uint64_t allocs = allocProbeDisarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(acc, 0.0);
}

TEST(WallTimer, MeasuresNonNegativeMonotonic) {
  const WallTimer timer;
  const double t1 = timer.elapsedSeconds();
  const double t2 = timer.elapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
}

// ----------------------------------------------------------------- flags

TEST(Flags, ParsesAllForms) {
  FlagParser flags;
  flags.addString("name", "default", "a string");
  flags.addInt("count", 1, "an int");
  flags.addDouble("ratio", 0.5, "a double");
  flags.addBool("verbose", false, "a switch");

  const char* argv[] = {"prog",    "--name=value", "--count", "7",
                        "--ratio", "0.25",         "--verbose"};
  ASSERT_TRUE(flags.parse(7, argv).isOk());
  EXPECT_EQ(flags.getString("name"), "value");
  EXPECT_EQ(flags.getInt("count"), 7);
  EXPECT_DOUBLE_EQ(flags.getDouble("ratio"), 0.25);
  EXPECT_TRUE(flags.getBool("verbose"));
}

TEST(Flags, DefaultsApplyWithoutArgs) {
  FlagParser flags;
  flags.addInt("k", 5, "top k");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv).isOk());
  EXPECT_EQ(flags.getInt("k"), 5);
}

TEST(Flags, UnknownFlagRejected) {
  FlagParser flags;
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.parse(2, argv).isOk());
}

TEST(Flags, TypeErrorsRejected) {
  FlagParser flags;
  flags.addInt("n", 0, "");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.parse(2, argv).isOk());
}

TEST(Flags, MissingValueRejected) {
  FlagParser flags;
  flags.addInt("n", 0, "");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(flags.parse(2, argv).isOk());
}

TEST(Flags, PositionalCollected) {
  FlagParser flags;
  flags.addBool("v", false, "");
  const char* argv[] = {"prog", "input.csv", "--v", "out.csv"};
  ASSERT_TRUE(flags.parse(4, argv).isOk());
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.csv", "out.csv"}));
}

TEST(Flags, BoolAcceptsExplicitValues) {
  FlagParser flags;
  flags.addBool("x", true, "");
  const char* argv[] = {"prog", "--x=false"};
  ASSERT_TRUE(flags.parse(2, argv).isOk());
  EXPECT_FALSE(flags.getBool("x"));
}

TEST(Flags, HelpTextListsFlags) {
  FlagParser flags;
  flags.addInt("alpha", 3, "the alpha knob");
  const std::string help = flags.helpText("demo");
  EXPECT_NE(help.find("--alpha"), std::string::npos);
  EXPECT_NE(help.find("the alpha knob"), std::string::npos);
}

// ----------------------------------------------------------------- table

TEST(TextTable, RendersAlignedCells) {
  TextTable table;
  table.setHeader({"a", "bee"});
  table.addRow({"1", "2"});
  table.addRow({"333", "4"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| a   | bee |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4   |"), std::string::npos);
}

TEST(TextTable, EmptyRendersEmpty) {
  const TextTable table;
  EXPECT_EQ(table.render(), "");
}

TEST(TextTable, RaggedRowsPadded) {
  TextTable table;
  table.setHeader({"a", "b", "c"});
  table.addRow({"1"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| 1 |   |   |"), std::string::npos);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::pct(0.831, 1), "83.1%");
  EXPECT_EQ(TextTable::duration(0.5), "500.00ms");
  EXPECT_EQ(TextTable::duration(2.0), "2.000s");
  EXPECT_EQ(TextTable::duration(12e-6), "12.0us");
}

TEST(Logging, LevelRoundTrip) {
  const LogLevel before = logLevel();
  setLogLevel(LogLevel::kError);
  EXPECT_EQ(logLevel(), LogLevel::kError);
  setLogLevel(before);
}

}  // namespace
}  // namespace rap::util
