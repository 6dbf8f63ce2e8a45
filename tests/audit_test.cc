// Unit tests for the invariant auditor: incumbent-safety boundary
// semantics, liveness/convergence bounds, engine-sanity checks, and the
// violation trace record.
#include <gtest/gtest.h>

#include "audit/audit.h"
#include "obs/event_trace.h"
#include "sim/medium.h"
#include "sim/traffic.h"
#include "sim/world.h"

namespace whitefi {
namespace {

/// Minimal RadioPort for driving auditor hooks directly at exact times.
class FakeRadio : public RadioPort {
 public:
  FakeRadio(int id, const Channel& channel) : id_(id), channel_(channel) {}

  int NodeId() const override { return id_; }
  Position Location() const override { return {0.0, 0.0}; }
  const Channel& TunedChannel() const override { return channel_; }
  bool IsAp() const override { return false; }
  void DeliverFrame(const Frame&, Dbm) override {}
  void MediumChanged() override {}

 private:
  int id_;
  Channel channel_;
};

// ------------------------------------------------- incumbent safety -------

/// Fixture: a world with one mic and a fake audited node, the auditor's
/// safety budget pinned to a round number so the boundary is exact.
struct SafetyHarness {
  static constexpr SimTime kBudget = 50 * kTicksPerMs;
  static constexpr UhfIndex kMicChannel = 5;
  static constexpr SimTime kMicOn = 1 * kTicksPerSec;

  World world;
  InvariantAuditor auditor;
  FakeRadio radio{7, Channel{kMicChannel, ChannelWidth::kW5}};

  SafetyHarness()
      : auditor([] {
          AuditConfig c;
          c.safety_budget = kBudget;
          // The fake radio bypasses the medium, so the interval-union
          // reference would disagree with the (empty) medium books.
          c.check_books = false;
          return c;
        }()) {
    auditor.Attach(world);
    auditor.RegisterAp(radio.NodeId());
    auditor.OnNodeTuned(0, radio.NodeId(),
                        Channel{kMicChannel, ChannelWidth::kW5});
    world.AddMic(MicActivation{kMicChannel, ToUs(kMicOn), ToUs(kMicOn) +
                                                              10.0 * kSecond});
  }

  /// Fires one transmit-start hook at simulated time `at`.
  void TransmitAt(SimTime at) {
    world.sim().Schedule(at, [this, at] {
      auditor.OnTransmitStart(at, radio,
                              Channel{kMicChannel, ChannelWidth::kW5},
                              100);
    });
  }
};

TEST(AuditIncumbentSafety, ExposureExactlyAtBudgetPasses) {
  // The boundary contract (ISSUE satellite): a transmission whose overlap
  // with the active mic equals the budget EXACTLY is legal...
  SafetyHarness h;
  h.TransmitAt(SafetyHarness::kMicOn + SafetyHarness::kBudget);
  h.world.RunFor(2.0);
  EXPECT_TRUE(h.auditor.ok()) << h.auditor.first_violation()->ToString();
}

TEST(AuditIncumbentSafety, OneTickPastBudgetTrips) {
  // ...and one microsecond tick past it is a violation.
  SafetyHarness h;
  h.TransmitAt(SafetyHarness::kMicOn + SafetyHarness::kBudget + 1);
  h.world.RunFor(2.0);
  ASSERT_EQ(h.auditor.violation_count(), 1u);
  const Violation& v = *h.auditor.first_violation();
  EXPECT_EQ(v.invariant, "incumbent-safety");
  EXPECT_EQ(v.node, 7);
  EXPECT_EQ(v.channel, static_cast<int>(SafetyHarness::kMicChannel));
  EXPECT_EQ(v.at, SafetyHarness::kMicOn + SafetyHarness::kBudget + 1);
}

TEST(AuditIncumbentSafety, ExposureClockStartsAtArrivalNotMicOn) {
  // A node that tunes onto a channel whose mic predates it gets a full
  // budget from its arrival: exposure is min(since mic-on, since tune).
  SafetyHarness h;
  const SimTime arrive = SafetyHarness::kMicOn + 3 * kTicksPerSec;
  h.world.sim().Schedule(arrive, [&] {
    h.auditor.OnNodeTuned(arrive, h.radio.NodeId(),
                          Channel{SafetyHarness::kMicChannel,
                                  ChannelWidth::kW5});
  });
  h.TransmitAt(arrive + SafetyHarness::kBudget);      // Edge: passes.
  h.TransmitAt(arrive + SafetyHarness::kBudget + 1);  // Past: trips.
  h.world.RunFor(6.0);
  EXPECT_EQ(h.auditor.violation_count(), 1u);
}

TEST(AuditIncumbentSafety, UnauditedNodesAreExempt) {
  // Background traffic is not WhiteFi's to police.
  SafetyHarness h;
  FakeRadio background{99, Channel{SafetyHarness::kMicChannel,
                                   ChannelWidth::kW5}};
  h.world.sim().Schedule(SafetyHarness::kMicOn + 2 * kTicksPerSec, [&] {
    h.auditor.OnTransmitStart(h.world.sim().Now(), background,
                              background.TunedChannel(), 100);
  });
  h.world.RunFor(4.0);
  EXPECT_TRUE(h.auditor.ok());
}

// ------------------------------------------------------ engine sanity -----

TEST(AuditEngine, TimeRunningBackwardsIsReported) {
  InvariantAuditor auditor;
  FakeRadio radio{1, Channel{3, ChannelWidth::kW5}};
  auditor.OnNodeTuned(1000, 1, radio.TunedChannel());
  auditor.OnTransmitStart(500, radio, radio.TunedChannel(), 10);
  ASSERT_GE(auditor.violation_count(), 1u);
  EXPECT_EQ(auditor.first_violation()->invariant, "monotonicity");
}

TEST(AuditEngine, MacTimingWidthMismatchIsReported) {
  // A MAC contending with 10 MHz DIFS while the radio sits on a 5 MHz
  // channel is the stale-timing bug the hook exists to catch.
  InvariantAuditor auditor;
  FakeRadio radio{4, Channel{8, ChannelWidth::kW5}};
  auditor.OnMacTiming(radio, PhyTiming::ForWidth(ChannelWidth::kW5));
  EXPECT_TRUE(auditor.ok());
  auditor.OnMacTiming(radio, PhyTiming::ForWidth(ChannelWidth::kW10));
  ASSERT_EQ(auditor.violation_count(), 1u);
  EXPECT_EQ(auditor.first_violation()->invariant, "mac-timing");
  EXPECT_EQ(auditor.first_violation()->node, 4);
}

TEST(AuditEngine, BooksMatchOnRealTraffic) {
  // End-to-end conservation: real devices through the real medium, the
  // auditor's interval-union reference must agree with the lazily accrued
  // medium books at every sweep.
  WorldConfig config;
  InvariantAuditor auditor;
  config.obs.auditor = &auditor;
  World world(config);
  auditor.Attach(world);

  DeviceConfig tx_config;
  tx_config.initial_channel = Channel{10, ChannelWidth::kW5};
  Device& tx = world.Create<Device>(tx_config);
  DeviceConfig rx_config = tx_config;
  rx_config.position = {30.0, 0.0};
  Device& rx = world.Create<Device>(rx_config);
  CbrSource source(tx, rx.NodeId(), 400, 5 * kTicksPerMs);
  source.Start();
  world.RunFor(2.0);
  EXPECT_TRUE(auditor.ok()) << auditor.first_violation()->ToString();
}

// ---------------------------------------------------- protocol liveness ---

TEST(AuditLiveness, SilentDisconnectedClientTripsChirpBound) {
  WorldConfig world_config;
  World world(world_config);
  InvariantAuditor auditor;
  auditor.Attach(world);
  ClientParams params;
  params.chirp_interval = 100 * kTicksPerMs;
  params.chirp_jitter = 0.0;
  params.chirp_backoff = false;
  auditor.RegisterClient(42, params);

  // Disconnects at 1 s and never chirps: bound is 100 ms + 100 ms slack,
  // so the sweep after 1.2 s must flag it, and the re-arm limits the rate
  // to one violation per bound, not one per sweep.
  world.sim().Schedule(1 * kTicksPerSec,
                       [&] { auditor.OnClientDisconnected(
                                 world.sim().Now(), 42); });
  world.RunFor(1.15);
  EXPECT_TRUE(auditor.ok());
  world.RunFor(0.3);
  EXPECT_EQ(auditor.violation_count(), 1u);
  EXPECT_EQ(auditor.first_violation()->invariant, "chirp-liveness");
  EXPECT_EQ(auditor.first_violation()->node, 42);
}

TEST(AuditLiveness, ChirpingClientStaysLegal) {
  WorldConfig world_config;
  World world(world_config);
  InvariantAuditor auditor;
  auditor.Attach(world);
  ClientParams params;
  params.chirp_interval = 100 * kTicksPerMs;
  params.chirp_jitter = 0.0;
  params.chirp_backoff = false;
  auditor.RegisterClient(42, params);

  world.sim().Schedule(1 * kTicksPerSec,
                       [&] { auditor.OnClientDisconnected(
                                 world.sim().Now(), 42); });
  // Chirps every 150 ms — inside the 200 ms bound.
  for (int i = 1; i <= 20; ++i) {
    const SimTime at = 1 * kTicksPerSec + i * 150 * kTicksPerMs;
    world.sim().Schedule(at, [&, at] { auditor.OnChirp(at, 42); });
  }
  world.RunFor(4.0);
  EXPECT_TRUE(auditor.ok()) << auditor.first_violation()->ToString();
}

TEST(AuditConvergence, PersistentViewMismatchIsReported) {
  WorldConfig world_config;
  World world(world_config);
  AuditConfig config;
  config.convergence_budget = 500 * kTicksPerMs;
  InvariantAuditor auditor(config);
  auditor.Attach(world);
  auditor.RegisterAp(1);
  ClientParams params;
  auditor.RegisterClient(2, params);
  auditor.OnClientReconnected(0, 2);
  auditor.OnNodeTuned(0, 1, Channel{10, ChannelWidth::kW5});
  auditor.OnNodeTuned(0, 2, Channel{10, ChannelWidth::kW5});
  // The AP moves; the "connected" client never follows.
  world.sim().Schedule(1 * kTicksPerSec, [&] {
    auditor.OnNodeTuned(world.sim().Now(), 1, Channel{20, ChannelWidth::kW5});
  });
  world.RunFor(2.5);
  ASSERT_GE(auditor.violation_count(), 1u);
  EXPECT_EQ(auditor.first_violation()->invariant, "convergence");
  EXPECT_EQ(auditor.first_violation()->node, 2);
}

TEST(AuditConvergence, DisconnectedClientIsNotHeldToConvergence) {
  WorldConfig world_config;
  World world(world_config);
  AuditConfig config;
  config.convergence_budget = 500 * kTicksPerMs;
  InvariantAuditor auditor(config);
  auditor.Attach(world);
  auditor.RegisterAp(1);
  ClientParams params;
  params.chirp_backoff = true;  // Wide liveness bound; not under test.
  auditor.RegisterClient(2, params);
  auditor.OnNodeTuned(0, 1, Channel{10, ChannelWidth::kW5});
  auditor.OnNodeTuned(0, 2, Channel{25, ChannelWidth::kW5});
  auditor.OnClientDisconnected(0, 2);
  world.sim().Schedule(500 * kTicksPerMs,
                       [&] { auditor.OnChirp(world.sim().Now(), 2); });
  world.RunFor(1.2);
  EXPECT_TRUE(auditor.ok()) << auditor.first_violation()->ToString();
}

// ------------------------------------------------------- trace record -----

TEST(AuditTrace, ViolationEmitsStructuredTraceEvent) {
  EventTrace trace;
  WorldConfig world_config;
  world_config.obs.trace = &trace;
  World world(world_config);
  InvariantAuditor auditor;
  auditor.Attach(world);
  FakeRadio radio{1, Channel{3, ChannelWidth::kW5}};
  auditor.OnNodeTuned(1000, 1, radio.TunedChannel());
  auditor.OnTransmitStart(500, radio, radio.TunedChannel(), 10);

  ASSERT_FALSE(auditor.ok());
  bool found = false;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEventKind::kInvariantViolation) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(AuditTrace, ViolationCapRetainsExactCount) {
  AuditConfig config;
  config.max_recorded = 2;
  InvariantAuditor auditor(config);
  FakeRadio radio{1, Channel{3, ChannelWidth::kW5}};
  for (int i = 0; i < 5; ++i) {
    auditor.OnNodeTuned(1000, 1, radio.TunedChannel());
    auditor.OnTransmitStart(500, radio, radio.TunedChannel(), 10);
  }
  EXPECT_EQ(auditor.violations().size(), 2u);
  EXPECT_EQ(auditor.violation_count(), 5u);
}

}  // namespace
}  // namespace whitefi
