// Tests for the INI-style config parser and the scenario-file loader.
#include <gtest/gtest.h>

#include "fuzz.h"
#include "scenario_file.h"
#include "spectrum/campus.h"
#include "util/config.h"

namespace whitefi {
namespace {

TEST(ConfigFile, ParsesKeysSectionsAndComments) {
  const auto config = ConfigFile::ParseString(R"(
# a comment
seed = 7         ; trailing comment
name = hello world
[map]
name = campus
widths = 5, 10, 20
[flags]
adaptive = true
)");
  EXPECT_TRUE(config.Has("seed"));
  EXPECT_EQ(config.GetInt("seed"), 7);
  EXPECT_EQ(config.Get("name"), "hello world");
  EXPECT_EQ(config.Get("map.name"), "campus");
  EXPECT_EQ(config.GetIntList("map.widths"),
            (std::vector<long long>{5, 10, 20}));
  EXPECT_TRUE(config.GetBool("flags.adaptive"));
  EXPECT_FALSE(config.Has("missing"));
  EXPECT_EQ(config.Get("missing", "dflt"), "dflt");
  EXPECT_EQ(config.GetInt("missing", 42), 42);
  EXPECT_EQ(config.Keys().size(), 5u);
}

TEST(ConfigFile, NumericAndBooleanValidation) {
  const auto config = ConfigFile::ParseString(
      "x = 12\ny = 3.5\nb = YES\nbad = twelve\nbadly = 3x\n");
  EXPECT_EQ(config.GetInt("x"), 12);
  EXPECT_DOUBLE_EQ(config.GetDouble("y"), 3.5);
  EXPECT_DOUBLE_EQ(config.GetDouble("x"), 12.0);
  EXPECT_TRUE(config.GetBool("b"));
  EXPECT_THROW(config.GetInt("bad"), std::runtime_error);
  EXPECT_THROW(config.GetInt("badly"), std::runtime_error);
  EXPECT_THROW(config.GetDouble("bad"), std::runtime_error);
  EXPECT_THROW(config.GetBool("x"), std::runtime_error);
}

TEST(ConfigFile, RejectsMalformedLines) {
  EXPECT_THROW(ConfigFile::ParseString("just words\n"), std::runtime_error);
  EXPECT_THROW(ConfigFile::ParseString("[unterminated\n"), std::runtime_error);
  EXPECT_THROW(ConfigFile::ParseString("= value\n"), std::runtime_error);
  EXPECT_THROW(ConfigFile::Load("/nonexistent/path.conf"),
               std::runtime_error);
}

TEST(ConfigFile, ListEdgeCases) {
  const auto config = ConfigFile::ParseString("a = 1,, 2 ,3\nempty =\n");
  EXPECT_EQ(config.GetList("a"), (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_TRUE(config.GetList("empty").empty());
  EXPECT_TRUE(config.GetList("absent").empty());
  EXPECT_THROW(ConfigFile::ParseString("l = 1, x\n").GetIntList("l"),
               std::runtime_error);
}

TEST(ConfigFile, TracksConsumptionForUnknownKeyDetection) {
  const auto config = ConfigFile::ParseString(R"(
seed = 1
sceonds = 10
[network]
clients = 2
cilents = 3
)");
  // Nothing read yet: every key is unconsumed.
  EXPECT_EQ(config.UnconsumedKeys().size(), 4u);
  config.GetInt("seed");
  config.Has("network.clients");  // Has() counts as a read too.
  EXPECT_EQ(config.UnconsumedKeys(),
            (std::vector<std::string>{"network.cilents", "sceonds"}));
  // Probing an absent key must not mark anything.
  config.Get("seconds");
  EXPECT_EQ(config.UnconsumedKeys().size(), 2u);
  EXPECT_EQ(config.LineOf("sceonds"), 3);
  EXPECT_EQ(config.LineOf("network.cilents"), 6);
  EXPECT_EQ(config.LineOf("absent"), 0);
}

TEST(ConfigFile, SetOverridesAValueAndIsTrackedLikeIt) {
  auto config = ConfigFile::ParseString("seed = 1\n[network]\nclients = 2\n");
  config.Set("seed", "9");      // Overrides the file.
  config.Set("mic.on_s", "3");  // A key the file does not have.
  EXPECT_EQ(config.Keys().size(), 3u);
  EXPECT_EQ(config.GetInt("seed"), 9);
  EXPECT_EQ(config.LineOf("seed"), 0);  // No longer from the source.
  EXPECT_EQ(config.LineOf("network.clients"), 3);
  // Set marks nothing consumed: a key no reader looks at stays unread,
  // whether it came from the file or from Set.
  EXPECT_EQ(config.UnconsumedKeys(),
            (std::vector<std::string>{"mic.on_s", "network.clients"}));
  config.GetDouble("mic.on_s");
  EXPECT_EQ(config.UnconsumedKeys(),
            (std::vector<std::string>{"network.clients"}));
}

TEST(ConfigFile, ErrorsCarrySourceAndLine) {
  // Parse errors: line of the offending statement, empty path for strings.
  try {
    ConfigFile::ParseString("ok = 1\njust words\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_TRUE(e.path().empty());
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  // Conversion errors: line of the key whose value is malformed.
  const auto config = ConfigFile::ParseString("a = 1\nbad = twelve\n");
  try {
    config.GetInt("bad");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  // Unreadable files: the path, with no attributable line.
  try {
    ConfigFile::Load("/nonexistent/path.conf");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.path(), "/nonexistent/path.conf");
    EXPECT_EQ(e.line(), 0);
  }
}

// --------------------------------------------------------- scenario file --

TEST(ScenarioFile, LoadsFullScenario) {
  const auto config = ConfigFile::ParseString(R"(
seed = 9
seconds = 12
warmup = 2
[map]
name = building5
extra_occupied = 48
[network]
clients = 3
[background]
pairs = 4
ipd_ms = 25
payload = 500
[mic]
tv_channel = 28
on_s = 4
off_s = 100
)");
  const auto scenario = bench::LoadScenario(config);
  EXPECT_EQ(scenario.seed, 9u);
  EXPECT_DOUBLE_EQ(scenario.measure_s, 12.0);
  EXPECT_DOUBLE_EQ(scenario.warmup_s, 2.0);
  EXPECT_EQ(scenario.num_clients, 3);
  // Building5 has 10 free channels; we occupied 48 on top.
  EXPECT_EQ(scenario.base_map.NumFree(), 9);
  EXPECT_TRUE(scenario.base_map.Occupied(IndexOfTvChannel(48)));
  ASSERT_EQ(scenario.background.size(), 4u);
  for (const auto& spec : scenario.background) {
    EXPECT_TRUE(scenario.base_map.Free(spec.channel));
    EXPECT_EQ(spec.cbr_interval, 25 * kTicksPerMs);
    EXPECT_EQ(spec.payload_bytes, 500);
  }
  ASSERT_EQ(scenario.mics.size(), 1u);
  EXPECT_EQ(scenario.mics[0].channel, IndexOfTvChannel(28));
  EXPECT_DOUBLE_EQ(scenario.mics[0].on_time, 4.0 * kSecond);
  EXPECT_FALSE(scenario.static_channel.has_value());
}

TEST(ScenarioFile, StaticWidthSelection) {
  const auto scenario = bench::LoadScenario(ConfigFile::ParseString(
      "[map]\nname = building5\n[network]\nstatic_width = 20\n"));
  ASSERT_TRUE(scenario.static_channel.has_value());
  EXPECT_EQ(scenario.static_channel->width, ChannelWidth::kW20);
  EXPECT_TRUE(Building5Map().CanUse(*scenario.static_channel));
}

TEST(ScenarioFile, Validation) {
  EXPECT_THROW(
      bench::LoadScenario(ConfigFile::ParseString("[map]\nname = mars\n")),
      std::runtime_error);
  // Building5 has no 30 MHz option; 20 exists, but a width with no fitting
  // channel throws.
  EXPECT_THROW(bench::LoadScenario(ConfigFile::ParseString(
                   "[map]\nname = building5\nextra_occupied = "
                   "26,27,28,29,30\n[network]\nstatic_width = 20\n")),
               std::runtime_error);
  // Counts and intervals that would crash or stall the run.
  EXPECT_THROW(bench::LoadScenario(
                   ConfigFile::ParseString("[network]\nclients = -1\n")),
               std::runtime_error);
  EXPECT_THROW(bench::LoadScenario(ConfigFile::ParseString(
                   "[background]\npairs = 1\nipd_ms = 0\n")),
               std::runtime_error);
  // A mic that switches off before (or as) it switches on.
  EXPECT_THROW(bench::LoadScenario(ConfigFile::ParseString(
                   "[mic]\ntv_channel = 28\non_s = 4\noff_s = 3\n")),
               std::runtime_error);
  EXPECT_THROW(bench::LoadScenario(ConfigFile::ParseString(
                   "[mic]\ntv_channel = 28\non_s = 4\noff_s = 4\n")),
               std::runtime_error);
  // Seeds, run lengths and audit intervals a flag would refuse.
  for (const char* text :
       {"seed = -1\n", "fault.seed = -2\n", "seconds = 0\n",
        "seconds = -3\n", "seconds = nan\n", "seconds = inf\n",
        "warmup = -1\n", "warmup = nan\n"}) {
    EXPECT_THROW(bench::LoadScenario(ConfigFile::ParseString(text)),
                 std::runtime_error)
        << text;
  }
  for (const char* text : {"city.aps = 4\nseed = -1\n",
                           "city.aps = 4\nseconds = nan\n",
                           "city.aps = 4\nseconds = 0\n"}) {
    EXPECT_THROW(bench::LoadCityScenario(ConfigFile::ParseString(text)),
                 std::runtime_error)
        << text;
  }
  for (const char* text :
       {"audit.safety_budget_ms = -5\n", "audit.geo_budget_ms = -1\n",
        "audit.vacate_slack_ms = 2147483648\n", "audit.sweep_ms = 0\n",
        "audit.sweep_ms = -250\n"}) {
    EXPECT_THROW(bench::LoadAuditConfig(ConfigFile::ParseString(text)),
                 std::runtime_error)
        << text;
  }
  // The bounds themselves load.
  const AuditConfig audit = bench::LoadAuditConfig(ConfigFile::ParseString(
      "audit.safety_budget_ms = 0\naudit.sweep_ms = 1\n"
      "audit.vacate_slack_ms = 2147483647\n"));
  EXPECT_EQ(audit.sweep_interval, kTicksPerMs);
  EXPECT_EQ(audit.safety_vacate_slack, 2147483647 * kTicksPerMs);
  EXPECT_EQ(bench::LoadScenario(ConfigFile::ParseString("warmup = 0\n"))
                .warmup_s,
            0.0);
}

TEST(ScenarioFile, UnknownKeysSurfaceTyposButNotConsumedSections) {
  const auto config = ConfigFile::ParseString(R"(
seed = 2
[network]
clients = 2
[client]
chirp_backoff = yes
chrip_jitter = 0.2
[fault]
miss_chirp_p = 0.1
scanner_outages = 2-4
)");
  bench::LoadScenario(config);
  // The loader consumed every key it understands — including the [client]
  // and [fault] sections — leaving exactly the typo.
  EXPECT_EQ(config.UnconsumedKeys(),
            (std::vector<std::string>{"client.chrip_jitter"}));
}

TEST(ScenarioFile, LoadedScenarioRuns) {
  const auto scenario = bench::LoadScenario(ConfigFile::ParseString(R"(
seed = 5
seconds = 4
[map]
name = building5
[network]
clients = 1
)"));
  const auto result = bench::RunScenario(scenario);
  EXPECT_GT(result.per_client_mbps, 2.0);  // Clean 20 MHz channel.
}

}  // namespace
}  // namespace whitefi
