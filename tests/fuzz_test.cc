// Tests for the seed-fuzz harness: generator determinism, repro-bundle
// round-trips, replay identity under a weakened safety budget, the
// minimizer, and the named-substream seeding discipline.
#include <gtest/gtest.h>

#include <string>

#include "fuzz.h"
#include "scenario.h"
#include "scenario_file.h"
#include "util/rng.h"

namespace whitefi::bench {
namespace {

TEST(FuzzGenerator, SameSeedAndIndexSameBytes) {
  FuzzOptions options;
  options.root_seed = 11;
  EXPECT_EQ(GenerateFuzzScenario(options, 3), GenerateFuzzScenario(options, 3));
  EXPECT_NE(GenerateFuzzScenario(options, 3), GenerateFuzzScenario(options, 4));
  FuzzOptions other = options;
  other.root_seed = 12;
  EXPECT_NE(GenerateFuzzScenario(options, 3), GenerateFuzzScenario(other, 3));
}

TEST(FuzzGenerator, EveryTrialParsesAndLoads) {
  FuzzOptions options;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::string text = GenerateFuzzScenario(options, i);
    const ConfigFile config = ConfigFile::ParseString(text);
    EXPECT_NO_THROW(LoadScenario(config)) << text;
  }
}

TEST(FuzzGenerator, GeoDbSameSeedAndIndexSameBytes) {
  FuzzOptions options;
  options.root_seed = 11;
  const std::string plain = GenerateGeoDbFuzzScenario(options, 3);
  EXPECT_EQ(plain, GenerateGeoDbFuzzScenario(options, 3));
  EXPECT_NE(plain, GenerateGeoDbFuzzScenario(options, 4));
  FuzzOptions other = options;
  other.root_seed = 12;
  EXPECT_NE(plain, GenerateGeoDbFuzzScenario(other, 3));
  // The budget keys appear only when set, after the unchanged draws.
  EXPECT_EQ(plain.find("audit."), std::string::npos);
  options.geo_budget_ms = 5;
  EXPECT_EQ(GenerateGeoDbFuzzScenario(options, 3),
            plain + "audit.geo_budget_ms = 5\n");
  options.safety_budget_ms = 7;
  EXPECT_EQ(GenerateGeoDbFuzzScenario(options, 3),
            plain + "audit.safety_budget_ms = 7\naudit.geo_budget_ms = 5\n");
}

TEST(FuzzGenerator, EveryGeoDbTrialLoadsWithTheServiceOn) {
  FuzzOptions options;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::string text = GenerateGeoDbFuzzScenario(options, i);
    const ConfigFile config = ConfigFile::ParseString(text);
    ScenarioConfig scenario;
    EXPECT_NO_THROW(scenario = LoadScenario(config)) << text;
    EXPECT_TRUE(scenario.geodb.enabled) << text;
  }
}

TEST(FuzzBundle, ExpectBlockRoundTrips) {
  Violation v;
  v.at = 123456;
  v.invariant = "incumbent-safety";
  v.node = 2;
  v.channel = 7;
  v.detail = "tx over mic active+audible for 9us (budget 8us)";
  const std::string bundle = MakeReproBundle("seed = 1\nseconds = 2\n", v);
  const auto expect = BundleExpectation(ConfigFile::ParseString(bundle));
  ASSERT_TRUE(expect.has_value());
  EXPECT_EQ(expect->at, v.at);
  EXPECT_EQ(expect->invariant, v.invariant);
  EXPECT_EQ(expect->node, v.node);
  EXPECT_EQ(expect->channel, v.channel);
  EXPECT_EQ(expect->detail, v.detail);
}

TEST(FuzzBundle, RebundlingReplacesExpectBlock) {
  Violation v1;
  v1.invariant = "incumbent-safety";
  v1.detail = "first";
  Violation v2;
  v2.invariant = "chirp-liveness";
  v2.detail = "second";
  const std::string once = MakeReproBundle("seed = 1\n", v1);
  const std::string twice = MakeReproBundle(once, v2);
  // Exactly one expect block, and it is the new one.
  std::size_t count = 0;
  for (std::size_t pos = twice.find("expect.invariant");
       pos != std::string::npos;
       pos = twice.find("expect.invariant", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  const auto expect = BundleExpectation(ConfigFile::ParseString(twice));
  ASSERT_TRUE(expect.has_value());
  EXPECT_EQ(expect->invariant, "chirp-liveness");
}

TEST(FuzzBundle, ScenarioWithoutExpectBlockIsNotABundle) {
  EXPECT_FALSE(
      BundleExpectation(ConfigFile::ParseString("seed = 1\n")).has_value());
  const ReplayOutcome outcome = ReplayBundleText("seed = 1\nseconds = 1\n");
  EXPECT_FALSE(outcome.reproduced);
}

TEST(FuzzSeeding, ScenarioFaultSeedIsANamedSubstream) {
  // The fault injector must never share the world's root stream: its seed
  // derives through the named substream unless explicitly pinned.
  ScenarioConfig config;
  config.seed = 9;
  EXPECT_EQ(ScenarioFaultSeed(config), DeriveSeed(9, "scenario.faults"));
  EXPECT_NE(ScenarioFaultSeed(config), config.seed);
  config.fault_seed = 0xABCD;
  EXPECT_EQ(ScenarioFaultSeed(config), 0xABCDu);
}

// The end-to-end pipeline under a deliberately weakened budget: some early
// trial must violate, its bundle must replay to the identical violation,
// and the minimized bundle must still reproduce.  This is the self-test
// that the soak's failure path (detect -> bundle -> replay) works at all.
TEST(FuzzPipeline, WeakBudgetViolationBundlesReplaysAndMinimizes) {
  FuzzOptions options;
  options.root_seed = 1;
  options.safety_budget_ms = 1;  // Nothing real vacates within 1 ms.

  std::string failing_text;
  Violation first;
  for (std::uint64_t i = 0; i < 5 && failing_text.empty(); ++i) {
    const std::string text = GenerateFuzzScenario(options, i);
    const AuditedRun run = RunAuditedScenarioText(text);
    // The audit.* knob wired by the generator must reach the auditor.
    EXPECT_EQ(run.safety_budget, 1 * kTicksPerMs);
    if (!run.violations.empty()) {
      failing_text = text;
      first = run.violations.front();
    }
  }
  ASSERT_FALSE(failing_text.empty())
      << "no violation in 5 trials under a 1 ms budget";

  const std::string bundle = MakeReproBundle(failing_text, first);
  const ReplayOutcome outcome = ReplayBundleText(bundle);
  EXPECT_TRUE(outcome.reproduced) << outcome.message;
  ASSERT_TRUE(outcome.got.has_value());
  EXPECT_EQ(outcome.got->at, first.at);
  EXPECT_EQ(outcome.got->node, first.node);
  EXPECT_EQ(outcome.got->channel, first.channel);

  int steps = 0;
  const std::string minimized = MinimizeBundle(bundle, &steps);
  const ReplayOutcome min_outcome = ReplayBundleText(minimized);
  EXPECT_TRUE(min_outcome.reproduced) << min_outcome.message;
  // Whatever the minimizer kept, the bundle must stay self-contained: the
  // expect block was refreshed from the minimized run.
  const auto min_expect =
      BundleExpectation(ConfigFile::ParseString(minimized));
  ASSERT_TRUE(min_expect.has_value());
  EXPECT_EQ(min_expect->invariant, first.invariant);
}

TEST(FuzzPipeline, CleanRunHasNoViolationsAndExactBooks) {
  // One generated trial under the DEFAULT budget must hold every invariant
  // (the 200-seed sweep lives in bench_fuzz_soak; this is the smoke).
  FuzzOptions options;
  options.root_seed = 1;
  const AuditedRun run =
      RunAuditedScenarioText(GenerateFuzzScenario(options, 0));
  EXPECT_TRUE(run.ok()) << run.violations.front().ToString();
  EXPECT_GT(run.result.aggregate_mbps, 0.0);
}

}  // namespace
}  // namespace whitefi::bench
