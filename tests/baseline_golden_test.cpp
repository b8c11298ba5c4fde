// Pinned outputs of every comparison method of §V-C (Figs. 8-9).
//
// BaselineGolden hashes, for each baseline, every returned pattern's
// slots, %a confidence, %a score and layer over seeded RAPMD cases and
// Squeeze-B0 cases from every (n_dims, n_raps) group.  The digests were
// recorded before the baselines moved off the per-call inverted index
// onto LeafTable, so any change to a baseline's output (set, order or
// low bits of a score) shows.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "baselines/adtributor.h"
#include "baselines/fp_rap.h"
#include "baselines/hotspot.h"
#include "baselines/idice.h"
#include "baselines/squeeze.h"
#include "gen/rapmd.h"
#include "gen/squeeze_gen.h"

namespace rap::baselines {
namespace {

constexpr std::uint64_t kSeed = 20220627;

using Method = std::function<std::vector<core::ScoredPattern>(
    const dataset::LeafTable&)>;

std::vector<gen::Case> rapmdCases() {
  gen::RapmdConfig config;
  config.num_cases = 6;
  config.label_noise = 0.02;
  return gen::RapmdGenerator(dataset::Schema::cdn(), config, kSeed)
      .generate();
}

std::vector<gen::Case> squeezeCases() {
  gen::SqueezeGenConfig config;
  config.cases_per_group = 2;
  std::vector<gen::Case> out;
  for (auto& group : gen::SqueezeGenerator(config, kSeed).generateAllGroups()) {
    for (auto& c : group.cases) out.push_back(std::move(c));
  }
  return out;
}

/// FNV-1a over the text rendering of every pattern `method` returns on
/// `cases`, one case per line; `patterns` counts them.
std::uint64_t digest(const Method& method, const std::vector<gen::Case>& cases,
                     std::size_t& patterns) {
  std::string text;
  char buf[128];
  patterns = 0;
  for (const auto& c : cases) {
    for (const auto& p : method(c.table)) {
      ++patterns;
      for (const auto slot : p.ac.slots()) text += std::to_string(slot) + ",";
      std::snprintf(buf, sizeof buf, "|%a|%a|%d;", p.confidence, p.score,
                    p.layer);
      text += buf;
    }
    text += "\n";
  }
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char ch : text) {
    hash ^= ch;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct Pinned {
  const char* name;
  Method method;
  std::uint64_t rapmd;
  std::uint64_t squeeze;
};

TEST(BaselineGolden, PatternsArePinned) {
  const FpRapConfig apriori{.engine = RuleMiningEngine::kApriori};
  const std::vector<Pinned> methods = {
      {"Adtributor",
       [](const dataset::LeafTable& t) { return adtributorLocalize(t, {}, 0); },
       3505695746108510018ull, 6704549893916401718ull},
      {"iDice",
       [](const dataset::LeafTable& t) { return idiceLocalize(t, {}, 0); },
       5207344099144616703ull, 11316503742224816065ull},
      {"FP-growth",
       [](const dataset::LeafTable& t) { return fpGrowthLocalize(t, {}, 0); },
       4662886777591098808ull, 12206267077787403899ull},
      {"Apriori",
       [&apriori](const dataset::LeafTable& t) {
         return fpGrowthLocalize(t, apriori, 0);
       },
       4662886777591098808ull, 12206267077787403899ull},
      {"Squeeze",
       [](const dataset::LeafTable& t) { return squeezeLocalize(t, {}, 0); },
       18086650549605057444ull, 11956107044884350471ull},
      {"HotSpot",
       [](const dataset::LeafTable& t) { return hotspotLocalize(t, {}, 0); },
       17386380873694301803ull, 3045328081755965856ull},
  };
  const auto rapmd = rapmdCases();
  const auto squeeze = squeezeCases();
  ASSERT_EQ(squeeze.size(), 18u);  // 9 groups x 2 cases
  for (const auto& m : methods) {
    std::size_t patterns = 0;
    EXPECT_EQ(digest(m.method, rapmd, patterns), m.rapmd)
        << m.name << " on RAPMD";
    EXPECT_GT(patterns, 0u) << m.name << " on RAPMD";
    EXPECT_EQ(digest(m.method, squeeze, patterns), m.squeeze)
        << m.name << " on Squeeze-B0";
    EXPECT_GT(patterns, 0u) << m.name << " on Squeeze-B0";
  }
}

}  // namespace
}  // namespace rap::baselines
