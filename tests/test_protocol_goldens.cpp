// Golden outcomes for every protocol: each harness::Protocol runs the
// survivability campaign's 8-host leaf-spine (imc10 at load 0.6, audit on),
// once clean and once under a silent gray loss on every leaf, and its
// result_fingerprint() must hash to the value recorded here.
//
// The constants pin behaviour, not quality: a refactor that claims to be
// bit-identical (config sentinels folded into constants, shared pacing
// helpers, compiler-flag changes) must leave all eighteen untouched, and the
// two 144-host perf-basket pins at the end. A deliberate behaviour change
// updates them in the same commit and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/grid.h"
#include "campaign/spec.h"
#include "harness/experiment.h"
#include "harness/report.h"

namespace dcpim {
namespace {

#ifndef DCPIM_CAMPAIGN_SPEC_DIR
#error "build must define DCPIM_CAMPAIGN_SPEC_DIR"
#endif

using harness::ExperimentConfig;
using harness::Protocol;

constexpr const char* kGrayPlan = "gray:leaf*:0.01@30us:50us";

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// survivability.campaign's base scenario (topology, timing, traffic,
/// fault seed, audit) with the protocol's own load-balancing policy and no
/// fault plan.
ExperimentConfig survivability_base() {
  const std::string path =
      std::string(DCPIM_CAMPAIGN_SPEC_DIR) + "/survivability.campaign";
  const campaign::CampaignSpec spec =
      campaign::parse_campaign_spec(read_file(path), path);
  ExperimentConfig cfg = campaign::expand(spec).front().config;
  cfg.lb_policy_auto = true;
  cfg.faults.clear();
  return cfg;
}

struct Golden {
  Protocol protocol;
  std::uint64_t clean;
  std::uint64_t gray;
};

constexpr Golden kGoldens[] = {
    {Protocol::Dcpim, 0x2d01055d2e521d20, 0x7fa84d11a6afb50a},
    {Protocol::Phost, 0x04545d540744e762, 0x0df72dcd3a5253ac},
    {Protocol::Homa, 0xca4a767f979bb332, 0x1c8705936488ad8a},
    {Protocol::HomaAeolus, 0xecbe408cd3ada4d0, 0x84fbcc0f299ffd54},
    {Protocol::Ndp, 0x8d2c72a72413fc0c, 0xb74f09287846f79e},
    {Protocol::Hpcc, 0xd714b0722a358d13, 0x260693b26f8e1fb0},
    {Protocol::Dctcp, 0x9ed08bfa46be338a, 0xd4b526ce3724d270},
    {Protocol::Tcp, 0x7ef2dc33220b4022, 0x8c115e02d2b1c4d2},
    {Protocol::Fastpass, 0x87aaaf7f2959acdc, 0xfc0593788d5c4575},
};

std::uint64_t result_fnv(ExperimentConfig cfg, Protocol p,
                         const std::string& faults) {
  cfg.protocol = p;
  cfg.faults = faults;
  return campaign::fnv1a(
      harness::result_fingerprint(harness::run_experiment(cfg)));
}

TEST(ProtocolGoldensTest, EveryProtocolMatchesItsRecordedFingerprint) {
  const ExperimentConfig base = survivability_base();
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(harness::to_string(g.protocol));
    const std::uint64_t clean = result_fnv(base, g.protocol, "");
    const std::uint64_t gray = result_fnv(base, g.protocol, kGrayPlan);
    EXPECT_EQ(clean, g.clean) << std::hex << "clean: 0x" << clean;
    EXPECT_EQ(gray, g.gray) << std::hex << "gray: 0x" << gray;
  }
}

// perf_basket.campaign's HomaAeolus and HPCC cells (144 hosts, IMC10 at
// load 0.6) must hash to their BENCH_7.json fingerprints. The basket's
// dcPIM and NDP cells are pinned by perfbench/test_run.py, and
// tools/record_bench.py --compare checks all four against the committed
// record.
TEST(BasketGoldensTest, HomaAeolusAndHpccMatchBench7) {
  if (std::getenv("DCPIM_BENCH_SCALE") != nullptr) {
    GTEST_SKIP() << "DCPIM_BENCH_SCALE stretches the basket's horizons";
  }
  const std::string path =
      std::string(DCPIM_CAMPAIGN_SPEC_DIR) + "/perf_basket.campaign";
  const campaign::CampaignSpec spec =
      campaign::parse_campaign_spec(read_file(path), path);
  int checked = 0;
  for (const campaign::Cell& cell : campaign::expand(spec)) {
    std::uint64_t expected = 0;
    if (cell.config.protocol == Protocol::HomaAeolus) {
      expected = 0xe02304ae1dc9f844;
    } else if (cell.config.protocol == Protocol::Hpcc) {
      expected = 0x57dfab81a313cd42;
    } else {
      continue;
    }
    SCOPED_TRACE(harness::to_string(cell.config.protocol));
    const std::uint64_t got = campaign::fnv1a(
        harness::result_fingerprint(harness::run_experiment(cell.config)));
    EXPECT_EQ(got, expected) << std::hex << "0x" << got;
    ++checked;
  }
  EXPECT_EQ(checked, 2);
}

}  // namespace
}  // namespace dcpim
