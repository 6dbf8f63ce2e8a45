// Tests for the INI-style config parser and the scenario-file loader.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fuzz.h"
#include "scenario_file.h"
#include "spectrum/campus.h"
#include "util/config.h"

namespace whitefi {
namespace {

/// What `read` throws: whether it is a ConfigError (text that is not a
/// number) rather than a plain runtime error (a number a key cannot
/// take), and its message.
template <typename Read>
std::pair<bool, std::string> Refusal(Read read) {
  try {
    read();
  } catch (const ConfigError& e) {
    return {true, e.what()};
  } catch (const std::runtime_error& e) {
    return {false, e.what()};
  }
  ADD_FAILURE() << "nothing thrown";
  return {};
}

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
  EXPECT_EQ(config.Get<int>("seed", 0), 7);
  EXPECT_EQ(config.Get("name"), "hello world");
  EXPECT_EQ(config.Get("map.name"), "campus");
  EXPECT_EQ(config.GetList<int>("map.widths"),
            (std::vector<int>{5, 10, 20}));
  EXPECT_TRUE(config.GetBool("flags.adaptive"));
  EXPECT_FALSE(config.Has("missing"));
  EXPECT_EQ(config.Get("missing", "dflt"), "dflt");
  EXPECT_EQ(config.Get<int>("missing", 42), 42);
  EXPECT_EQ(config.Keys().size(), 5u);
}

TEST(ConfigFile, NumericAndBooleanValidation) {
  const auto config = ConfigFile::ParseString(
      "x = 12\ny = 3.5\nb = YES\nbad = twelve\nbadly = 3x\n");
  EXPECT_EQ(config.Get<int>("x", 0), 12);
  EXPECT_DOUBLE_EQ(config.Get<double>("y", 0.0), 3.5);
  EXPECT_DOUBLE_EQ(config.Get<double>("x", 0.0), 12.0);
  EXPECT_TRUE(config.GetBool("b"));
  EXPECT_THROW(config.Get<int>("bad", 0), ConfigError);
  EXPECT_THROW(config.Get<int>("badly", 0), ConfigError);
  EXPECT_THROW(config.Get<double>("bad", 0.0), ConfigError);
  EXPECT_THROW(config.GetBool("x"), std::runtime_error);
}

TEST(ConfigFile, TypedAccessorAtTheEdges) {
  const auto config = ConfigFile::ParseString(
      "int_max = 2147483647\nint_over = 2147483648\n"
      "ll_max = 9223372036854775807\nll_over = 9223372036854775808\n"
      "u64_max = 18446744073709551615\nminus = -1\n"
      "nan = nan\ninf = inf\nhuge = 1e309\nx3 = 3x\nlist = 27, 28abc\n");
  // The edges of each type load.
  EXPECT_EQ(config.Get<int>("int_max", 0), 2147483647);
  EXPECT_EQ(config.Get<long long>("ll_max", 0), 9223372036854775807LL);
  EXPECT_EQ(config.Get<std::uint64_t>("u64_max", 0),
            18446744073709551615ULL);
  EXPECT_EQ(config.Get<int>("minus", 0), -1);
  EXPECT_DOUBLE_EQ(config.Get<double>("int_over", 0.0), 2147483648.0);

  // A number the type cannot hold or be, or one outside the key's
  // bounds: a plain runtime error naming the key, its line and bounds.
  const std::vector<std::pair<std::function<void()>, std::string>> numbers{
      {[&] { config.Get<int>("int_over", 0); },
       "config line 2: int_over must be >= -2147483648 and <= 2147483647, "
       "got '2147483648'"},
      {[&] { config.Get<long long>("ll_over", 0); },
       "config line 4: ll_over must be >= -9223372036854775808 and <= "
       "9223372036854775807, got '9223372036854775808'"},
      {[&] { config.Get<std::uint64_t>("minus", 0); },
       "config line 6: minus must be >= 0 and <= 18446744073709551615, got "
       "'-1'"},
      {[&] { config.Get<double>("nan", 0.0); },
       "config line 7: nan must be finite, got 'nan'"},
      {[&] { config.Get<double>("inf", 0.0); },
       "config line 8: inf must be finite, got 'inf'"},
      {[&] { config.Get<double>("huge", 0.0); },
       "config line 9: huge must be finite, got '1e309'"},
      {[&] { config.Get<int>("int_max", 0, 0, 10); },
       "config line 1: int_max must be >= 0 and <= 10, got '2147483647'"},
      {[&] { config.Get<double>("minus", 1.0, kPositive); },
       "config line 6: minus must be finite and positive, got '-1'"},
      {[&] { config.Get<double>("ll_max", 0.0, 0.0, 1.0); },
       "config line 3: ll_max must be finite and >= 0 and <= 1, got "
       "'9223372036854775807'"},
  };
  for (const auto& [read, message] : numbers) {
    EXPECT_EQ(Refusal(read), std::make_pair(false, message));
  }

  // Text that is not a number of the type: a ConfigError with the line.
  const std::vector<std::pair<std::function<void()>, std::string>> texts{
      {[&] { config.Get<int>("x3", 0); },
       "config line 10: key 'x3' is not an integer: 3x"},
      {[&] { config.Get<double>("x3", 0.0); },
       "config line 10: key 'x3' is not a number: 3x"},
      {[&] { config.Get<int>("huge", 0); },
       "config line 9: key 'huge' is not an integer: 1e309"},
      {[&] { config.GetList<int>("list"); },
       "config line 11: key 'list' is not an integer: 28abc"},
  };
  for (const auto& [read, message] : texts) {
    EXPECT_EQ(Refusal(read), std::make_pair(true, message));
  }
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
  EXPECT_THROW(ConfigFile::ParseString("l = 1, x\n").GetList<int>("l"),
               ConfigError);
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
  config.Get<int>("seed", 0);
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
  EXPECT_EQ(config.Get<int>("seed", 0), 9);
  EXPECT_EQ(config.LineOf("seed"), 0);  // No longer from the source.
  EXPECT_EQ(config.LineOf("network.clients"), 3);
  // Set marks nothing consumed: a key no reader looks at stays unread,
  // whether it came from the file or from Set.
  EXPECT_EQ(config.UnconsumedKeys(),
            (std::vector<std::string>{"mic.on_s", "network.clients"}));
  config.Get<double>("mic.on_s", 0.0);
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
    config.Get<int>("bad", 0);
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
  // A number a key cannot take — beyond its type, not finite, outside
  // its bounds, or a time whose ticks would overflow SimTime — is a
  // runtime error naming the key and its line, never a narrowing, an
  // undefined cast or a silent run.
  const auto names_key = [](bool config_error, const std::string& message,
                            const std::string& key) {
    EXPECT_FALSE(config_error) << message;
    EXPECT_NE(message.find("config line "), std::string::npos) << message;
    EXPECT_NE(message.find(key + " must be "), std::string::npos) << message;
  };
  for (const auto& [text, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"network.clients = 4294967297\n", "network.clients"},
           {"background.ipd_ms = 9223372036854775\n", "background.ipd_ms"},
           {"mic.tv_channel = 28\nmic.on_s = nan\n", "mic.on_s"},
           {"geodb.guard_km = nan\n", "geodb.guard_km"},
           {"network.flip_p = 7\n", "network.flip_p"},
           {"geodb.refresh_s = 1e300\n", "geodb.refresh_s"},
           {"fault.geodb_staleness_s = -5\n", "fault.geodb_staleness_s"},
           {"geodb.staleness_s = -5\n", "geodb.staleness_s"},
           {"fault.storm_mics = 4294967297\n", "fault.storm_mics"},
           {"fault.storm_mics = 1\nfault.storm_duration_s = 1e300\n",
            "fault.storm_duration_s"}}) {
    const auto [config_error, message] = Refusal(
        [&] { bench::LoadScenario(ConfigFile::ParseString(text)); });
    names_key(config_error, message, key);
  }
  for (const auto& [text, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"city.aps = 4294967297\n", "city.aps"},
           {"city.cbr_interval_ms = 9223372036854775\n",
            "city.cbr_interval_ms"},
           {"city.mic_start_s = nan\n", "city.mic_start_s"}}) {
    const auto [config_error, message] = Refusal(
        [&] { bench::LoadCityScenario(ConfigFile::ParseString(text)); });
    names_key(config_error, message, key);
  }
  // Text that is not a number of the key's type is a ConfigError.
  EXPECT_EQ(Refusal([] {
              bench::LoadScenario(ConfigFile::ParseString(
                  "seed = 2\nmap.extra_occupied = 28abc\n"));
            }),
            std::make_pair(true, std::string("config line 2: key "
                                             "'map.extra_occupied' is not an "
                                             "integer: 28abc")));
  // A repro bundle's expectation is read as the loader's types.
  EXPECT_EQ(Refusal([] {
              bench::BundleExpectation(ConfigFile::ParseString(
                  "expect.invariant = x\nexpect.node = 4294967296\n"));
            }).second,
            "config line 2: expect.node must be >= -2147483648 and <= "
            "2147483647, got '4294967296'");

  // The bounds themselves load.
  const AuditConfig audit = bench::LoadAuditConfig(ConfigFile::ParseString(
      "audit.safety_budget_ms = 0\naudit.sweep_ms = 1\n"
      "audit.vacate_slack_ms = 2147483647\n"));
  EXPECT_EQ(audit.sweep_interval, kTicksPerMs);
  EXPECT_EQ(audit.safety_vacate_slack, 2147483647 * kTicksPerMs);
  EXPECT_EQ(bench::LoadScenario(ConfigFile::ParseString("warmup = 0\n"))
                .warmup_s,
            0.0);
  EXPECT_EQ(bench::LoadScenario(
                ConfigFile::ParseString("seed = 18446744073709551615\n"))
                .seed,
            18446744073709551615ULL);
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
