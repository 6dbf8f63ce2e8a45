// Tests for the fault-injection subsystem (src/fault): plan parsing,
// injector determinism, the Gilbert-Elliott burst channel, windowed
// faults, churn-storm expansion, and the trace records that make every
// injection observable.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "obs/event_trace.h"
#include "util/config.h"

namespace whitefi {
namespace {

// ------------------------------------------------------------- FaultPlan --

TEST(FaultPlan, DefaultIsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.Empty());
  plan.miss_chirp_p = 0.1;
  EXPECT_FALSE(plan.Empty());
  plan = FaultPlan{};
  plan.frame_loss = GilbertElliottParams{};
  EXPECT_FALSE(plan.Empty());
  plan = FaultPlan{};
  plan.scanner_outages.push_back({0, 1});
  EXPECT_FALSE(plan.Empty());
}

TEST(FaultPlan, ParsesFromConfig) {
  const auto config = ConfigFile::ParseString(R"(
[fault]
ge_p_enter_bad = 0.02
ge_loss_bad = 0.9
beacon_drop_p = 0.1
scanner_outages = 3-8, 12.5-20
geodb_staleness_s = 60
storm_start_s = 5
storm_mics = 2
)");
  const FaultPlan plan = ParseFaultPlan(config);
  EXPECT_FALSE(plan.Empty());
  ASSERT_TRUE(plan.frame_loss.has_value());
  EXPECT_DOUBLE_EQ(plan.frame_loss->p_enter_bad, 0.02);
  EXPECT_DOUBLE_EQ(plan.frame_loss->loss_bad, 0.9);
  // Unspecified GE fields keep their struct defaults.
  EXPECT_DOUBLE_EQ(plan.frame_loss->p_exit_bad, 0.1);
  EXPECT_DOUBLE_EQ(plan.beacon_drop_p, 0.1);
  ASSERT_EQ(plan.scanner_outages.size(), 2u);
  EXPECT_EQ(plan.scanner_outages[0].from, 3 * kTicksPerSec);
  EXPECT_EQ(plan.scanner_outages[0].until, 8 * kTicksPerSec);
  EXPECT_EQ(plan.scanner_outages[1].from,
            static_cast<SimTime>(12.5 * kTicksPerSec));
  EXPECT_DOUBLE_EQ(plan.geodb_staleness, 60.0 * kSecond);
  ASSERT_EQ(plan.storms.size(), 1u);
  EXPECT_EQ(plan.storms[0].start, 5 * kTicksPerSec);
  EXPECT_EQ(plan.storms[0].mics, 2);
}

TEST(FaultPlan, ParseWithoutFaultKeysIsEmpty) {
  const auto config = ConfigFile::ParseString("seed = 3\n[map]\nname = x\n");
  EXPECT_TRUE(ParseFaultPlan(config).Empty());
}

TEST(FaultPlan, RejectsMalformedWindows) {
  EXPECT_THROW(ParseFaultPlan(ConfigFile::ParseString(
                   "[fault]\nscanner_outages = 5\n")),
               std::runtime_error);
  EXPECT_THROW(ParseFaultPlan(ConfigFile::ParseString(
                   "[fault]\nscanner_outages = a-b\n")),
               std::runtime_error);
  // A window must end after it starts.
  EXPECT_THROW(ParseFaultPlan(ConfigFile::ParseString(
                   "[fault]\ngeodb_outages = 8-3\n")),
               std::runtime_error);
  // A side that is not a number is a ConfigError with the line, trailing
  // text included.
  try {
    ParseFaultPlan(
        ConfigFile::ParseString("[fault]\nscanner_outages = 0.5-0.7x\n"));
    ADD_FAILURE() << "0.5-0.7x loaded";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "config line 2: key 'fault.scanner_outages' is not a "
                 "number: 0.7x");
  }
  // A number a key cannot take is a runtime error naming the key.
  for (const auto& [text, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"[fault]\ngeodb_staleness_s = -5\n", "fault.geodb_staleness_s"},
           {"[fault]\nstorm_mics = 4294967297\n", "fault.storm_mics"},
           {"[fault]\nstorm_mics = 1\nstorm_duration_s = 1e300\n",
            "fault.storm_duration_s"},
           {"[fault]\nscanner_outages = 1-1e300\n",
            "fault.scanner_outages"}}) {
    try {
      ParseFaultPlan(ConfigFile::ParseString(text));
      ADD_FAILURE() << text << " loaded";
    } catch (const ConfigError& e) {
      ADD_FAILURE() << e.what();
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key + " must be "),
                std::string::npos)
          << e.what();
    }
  }
}

// --------------------------------------------------------- construction --

TEST(FaultInjector, RejectsBadParameters) {
  FaultPlan plan;
  plan.miss_chirp_p = 1.5;
  EXPECT_THROW(FaultInjector(plan, 1), std::invalid_argument);
  plan = FaultPlan{};
  plan.beacon_drop_p = -0.1;
  EXPECT_THROW(FaultInjector(plan, 1), std::invalid_argument);
  plan = FaultPlan{};
  GilbertElliottParams ge;
  ge.p_exit_bad = 2.0;
  plan.frame_loss = ge;
  EXPECT_THROW(FaultInjector(plan, 1), std::invalid_argument);
  plan = FaultPlan{};
  ChurnStorm storm;
  storm.mics = -1;
  plan.storms.push_back(storm);
  EXPECT_THROW(FaultInjector(plan, 1), std::invalid_argument);
  plan.storms[0].mics = 1;
  plan.storms[0].duration = 0;
  EXPECT_THROW(FaultInjector(plan, 1), std::invalid_argument);
}

// ------------------------------------------------------------ FrameFault --

TEST(FaultInjector, TargetedDropsRespectFrameType) {
  FaultPlan plan;
  plan.beacon_drop_p = 1.0;
  FaultInjector injector(plan, 7);
  EXPECT_STREQ(injector.FrameFault(0, FrameType::kBeacon, 2), "beacon_drop");
  EXPECT_EQ(injector.FrameFault(0, FrameType::kData, 2), nullptr);
  EXPECT_EQ(injector.FrameFault(0, FrameType::kChirp, 2), nullptr);
  EXPECT_EQ(injector.InjectedCount(), 1u);

  FaultPlan chirp_plan;
  chirp_plan.chirp_drop_p = 1.0;
  FaultInjector chirp_injector(chirp_plan, 7);
  EXPECT_STREQ(chirp_injector.FrameFault(0, FrameType::kChirp, 3),
               "chirp_drop");
  EXPECT_EQ(chirp_injector.FrameFault(0, FrameType::kBeacon, 3), nullptr);
}

TEST(FaultInjector, ControlCorruptSparesDataAndAck) {
  FaultPlan plan;
  plan.control_corrupt_p = 1.0;
  FaultInjector injector(plan, 7);
  EXPECT_STREQ(injector.FrameFault(0, FrameType::kChannelSwitch, 2),
               "control_corrupt");
  EXPECT_STREQ(injector.FrameFault(0, FrameType::kReport, 2),
               "control_corrupt");
  EXPECT_EQ(injector.FrameFault(0, FrameType::kData, 2), nullptr);
  EXPECT_EQ(injector.FrameFault(0, FrameType::kAck, 2), nullptr);
}

TEST(FaultInjector, GilbertElliottBurstsPerReceiver) {
  // Deterministic extreme: always enter bad, never leave, always lose.
  FaultPlan plan;
  GilbertElliottParams ge;
  ge.p_enter_bad = 1.0;
  ge.p_exit_bad = 0.0;
  ge.loss_good = 0.0;
  ge.loss_bad = 1.0;
  plan.frame_loss = ge;
  FaultInjector injector(plan, 3);
  // Each receiver has its own chain; both go bad on their first frame.
  EXPECT_STREQ(injector.FrameFault(0, FrameType::kData, 10), "ge_loss");
  EXPECT_STREQ(injector.FrameFault(0, FrameType::kData, 11), "ge_loss");
  EXPECT_STREQ(injector.FrameFault(1, FrameType::kData, 10), "ge_loss");
}

TEST(FaultInjector, GilbertElliottHonorsWindows) {
  FaultPlan plan;
  GilbertElliottParams ge;
  ge.p_enter_bad = 1.0;
  ge.p_exit_bad = 0.0;
  ge.loss_bad = 1.0;
  plan.frame_loss = ge;
  plan.frame_loss_windows.push_back(
      {2 * kTicksPerSec, 4 * kTicksPerSec});
  FaultInjector injector(plan, 3);
  EXPECT_EQ(injector.FrameFault(0, FrameType::kData, 5), nullptr);
  EXPECT_STREQ(injector.FrameFault(2 * kTicksPerSec, FrameType::kData, 5),
               "ge_loss");
  // Half-open: the end tick is outside the window.
  EXPECT_EQ(injector.FrameFault(4 * kTicksPerSec, FrameType::kData, 5),
            nullptr);
}

// -------------------------------------------------- scanner/SIFT oracles --

TEST(FaultInjector, ScannerOutageWindowsAreHalfOpen) {
  FaultPlan plan;
  plan.scanner_outages.push_back({kTicksPerSec, 2 * kTicksPerSec});
  FaultInjector injector(plan, 1);
  EXPECT_FALSE(injector.ScannerDown(kTicksPerSec - 1));
  EXPECT_TRUE(injector.ScannerDown(kTicksPerSec));
  EXPECT_TRUE(injector.ScannerDown(2 * kTicksPerSec - 1));
  EXPECT_FALSE(injector.ScannerDown(2 * kTicksPerSec));
}

TEST(FaultInjector, DetectionDrawsAreDeterministicFromSeed) {
  FaultPlan plan;
  plan.miss_chirp_p = 0.5;
  plan.stale_scan_p = 0.3;
  plan.false_incumbent_p = 0.2;
  plan.miss_incumbent_p = 0.2;
  FaultInjector a(plan, 42);
  FaultInjector b(plan, 42);
  for (int i = 0; i < 200; ++i) {
    const SimTime t = i * kTicksPerMs;
    EXPECT_EQ(a.MissChirp(t), b.MissChirp(t));
    EXPECT_EQ(a.StaleScan(t), b.StaleScan(t));
    EXPECT_EQ(a.FalseIncumbent(t), b.FalseIncumbent(t));
    EXPECT_EQ(a.MissIncumbent(t), b.MissIncumbent(t));
  }
  EXPECT_EQ(a.InjectedCount(), b.InjectedCount());
  EXPECT_GT(a.InjectedCount(), 0u);
}

TEST(FaultInjector, ZeroProbabilityDrawsNothingAndBurnsNoRandomness) {
  FaultInjector injector(FaultPlan{}, 9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.MissChirp(i));
    EXPECT_FALSE(injector.StaleScan(i));
    EXPECT_EQ(injector.FrameFault(i, FrameType::kBeacon, 1), nullptr);
  }
  EXPECT_EQ(injector.InjectedCount(), 0u);
}

// ---------------------------------------------------------------- geo-db --

TEST(FaultInjector, GeoDbOracles) {
  FaultPlan plan;
  plan.geodb_outages.push_back({kTicksPerSec, 3 * kTicksPerSec});
  plan.geodb_staleness = 10.0 * kSecond;
  FaultInjector injector(plan, 1);
  EXPECT_TRUE(injector.GeoDbAvailable(0.0));
  EXPECT_FALSE(injector.GeoDbAvailable(2.0 * kSecond));
  EXPECT_TRUE(injector.GeoDbAvailable(3.0 * kSecond));
  EXPECT_DOUBLE_EQ(injector.GeoDbServedTime(25.0 * kSecond), 15.0 * kSecond);
  // Served time never precedes the epoch.
  EXPECT_DOUBLE_EQ(injector.GeoDbServedTime(5.0 * kSecond), 0.0);
}

// ---------------------------------------------------------- churn storms --

TEST(FaultInjector, StormExpansionIsDeterministicAndClipped) {
  FaultPlan plan;
  ChurnStorm storm;
  storm.start = 2 * kTicksPerSec;
  storm.duration = 10 * kTicksPerSec;
  storm.mics = 3;
  plan.storms.push_back(storm);
  const std::vector<UhfIndex> channels{1, 4, 9};

  FaultInjector a(plan, 77);
  FaultInjector b(plan, 77);
  FaultInjector c(plan, 78);
  const auto mics_a = a.ExpandStorms(channels);
  const auto mics_b = b.ExpandStorms(channels);
  const auto mics_c = c.ExpandStorms(channels);
  ASSERT_FALSE(mics_a.empty());
  ASSERT_EQ(mics_a.size(), mics_b.size());
  for (std::size_t i = 0; i < mics_a.size(); ++i) {
    EXPECT_EQ(mics_a[i].channel, mics_b[i].channel);
    EXPECT_DOUBLE_EQ(mics_a[i].on_time, mics_b[i].on_time);
    EXPECT_DOUBLE_EQ(mics_a[i].off_time, mics_b[i].off_time);
  }
  // A different seed produces a different schedule.
  bool differs = mics_a.size() != mics_c.size();
  for (std::size_t i = 0; !differs && i < mics_a.size(); ++i) {
    differs = mics_a[i].on_time != mics_c[i].on_time ||
              mics_a[i].channel != mics_c[i].channel;
  }
  EXPECT_TRUE(differs);

  const auto start_us = static_cast<Us>(storm.start);
  const auto end_us = static_cast<Us>(storm.start + storm.duration);
  for (std::size_t i = 0; i < mics_a.size(); ++i) {
    const MicActivation& mic = mics_a[i];
    EXPECT_GE(mic.on_time, start_us);
    EXPECT_LE(mic.off_time, end_us);  // Clipped to the storm window.
    EXPECT_LT(mic.on_time, mic.off_time);
    EXPECT_TRUE(mic.channel == 1 || mic.channel == 4 || mic.channel == 9);
    if (i > 0) {
      EXPECT_GE(mic.on_time, mics_a[i - 1].on_time);  // Sorted.
    }
  }
}

TEST(FaultInjector, StormExpansionWithoutChannelsIsEmpty) {
  FaultPlan plan;
  ChurnStorm storm;
  storm.start = 0;
  storm.duration = kTicksPerSec;
  storm.mics = 2;
  plan.storms.push_back(storm);
  FaultInjector injector(plan, 1);
  EXPECT_TRUE(injector.ExpandStorms({}).empty());
}

// --------------------------------------------------------- window events --

TEST(FaultInjector, WindowEventsBracketEveryWindowInOrder) {
  FaultPlan plan;
  plan.scanner_outages.push_back({5 * kTicksPerSec, 8 * kTicksPerSec});
  plan.geodb_outages.push_back({kTicksPerSec, 2 * kTicksPerSec});
  ChurnStorm storm;
  storm.start = 3 * kTicksPerSec;
  storm.duration = 10 * kTicksPerSec;
  storm.mics = 1;
  plan.storms.push_back(storm);
  FaultInjector injector(plan, 1);
  const auto events = injector.WindowEvents();
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at, events[i].at);
  }
  EXPECT_EQ(events[0].what, "geodb_outage");
  EXPECT_TRUE(events[0].inject);
  EXPECT_EQ(events[1].what, "geodb_outage");
  EXPECT_FALSE(events[1].inject);
  EXPECT_EQ(events[2].what, "churn_storm");
  // Per-kind pairing: one open and one close per window.
  int opens = 0;
  for (const auto& event : events) opens += event.inject ? 1 : -1;
  EXPECT_EQ(opens, 0);
}

// ----------------------------------------------------------- trace round --

TEST(FaultInjector, InjectionsEmitTraceRecordsThatRoundTripJsonl) {
  EventTrace trace;
  Observability obs;
  obs.trace = &trace;

  FaultPlan plan;
  plan.beacon_drop_p = 1.0;
  GilbertElliottParams ge;
  ge.p_enter_bad = 1.0;
  ge.p_exit_bad = 1.0;  // Bad for exactly one frame: inject then clear.
  ge.loss_bad = 0.0;
  plan.frame_loss = ge;
  FaultInjector injector(plan, 5);
  injector.SetObservability(obs);

  injector.FrameFault(10, FrameType::kBeacon, 4);  // beacon_drop
  injector.FrameFault(20, FrameType::kData, 4);    // enters bad state
  injector.FrameFault(30, FrameType::kData, 4);    // recovers
  ASSERT_GE(trace.events().size(), 3u);
  EXPECT_EQ(trace.CountOf(TraceEventKind::kFaultInjected), 2u);
  EXPECT_EQ(trace.CountOf(TraceEventKind::kFaultCleared), 1u);
  EXPECT_EQ(trace.events()[0].detail, "beacon_drop");
  EXPECT_EQ(trace.events()[0].node, 4);
  EXPECT_EQ(trace.events()[1].detail, "ge_bad_state");
  EXPECT_EQ(trace.events()[2].detail, "ge_good_state");
  EXPECT_EQ(trace.events()[2].kind, TraceEventKind::kFaultCleared);

  std::stringstream buffer;
  trace.WriteJsonl(buffer);
  const auto parsed = EventTrace::ReadJsonl(buffer);
  ASSERT_EQ(parsed.size(), trace.events().size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], trace.events()[i]);
  }
}

}  // namespace
}  // namespace whitefi
