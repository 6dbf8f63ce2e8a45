// Tests for the CSMA/CA MAC and its fairness, traffic sources, scanner,
// and world plumbing, incumbent sensing included.
#include <gtest/gtest.h>

#include "core/ap.h"
#include "core/client.h"
#include "sim/scanner.h"
#include "sim/traffic.h"
#include "sim/world.h"
#include "util/stats.h"

namespace whitefi {
namespace {

DeviceConfig At(double x, double y, Channel ch, int ssid = 1,
                bool is_ap = false) {
  DeviceConfig c;
  c.position = {x, y};
  c.initial_channel = ch;
  c.ssid = ssid;
  c.is_ap = is_ap;
  return c;
}

// A device of role `Base` that records when and of which channel the
// world tells it of an incumbent.
template <typename Base>
class Told : public Base {
 public:
  using Base::Base;
  void OnIncumbentDetected(UhfIndex channel) override {
    told.emplace_back(this->world().sim().Now(), channel);
    Base::OnIncumbentDetected(channel);
  }
  std::vector<std::pair<SimTime, UhfIndex>> told;
};

Frame Data(int dst, int payload = 1000) {
  Frame f;
  f.type = FrameType::kData;
  f.dst = dst;
  f.bytes = payload + kMacOverheadBytes;
  return f;
}

// ------------------------------------------------------------------ mac ---

TEST(Mac, UnicastDeliveredAndAcked) {
  World world;
  const Channel ch{10, ChannelWidth::kW20};
  Device& a = world.Create<Device>(At(0, 0, ch));
  Device& b = world.Create<Device>(At(50, 0, ch));
  int received = 0;
  b.AddReceiveHook([&](const Frame& f) {
    if (f.type == FrameType::kData) ++received;
  });
  int completed_ok = 0;
  a.AddSendCompleteHook([&](const Frame&, bool ok) { completed_ok += ok; });
  a.mac().Enqueue(Data(b.NodeId()));
  world.RunFor(0.1);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(completed_ok, 1);
  EXPECT_EQ(a.mac().Drops(), 0u);
  EXPECT_EQ(world.AppBytes(b.NodeId()), 1000u);
}

TEST(Mac, BroadcastDeliveredWithoutAck) {
  World world;
  const Channel ch{5, ChannelWidth::kW10};
  Device& a = world.Create<Device>(At(0, 0, ch));
  Device& b = world.Create<Device>(At(50, 0, ch));
  Device& c = world.Create<Device>(At(0, 50, ch));
  int deliveries = 0;
  const auto hook = [&](const Frame& f) {
    if (f.type == FrameType::kBeacon) ++deliveries;
  };
  b.AddReceiveHook(hook);
  c.AddReceiveHook(hook);
  Frame beacon;
  beacon.type = FrameType::kBeacon;
  beacon.dst = kBroadcastId;
  beacon.bytes = kBeaconBytes;
  a.mac().Enqueue(beacon);
  world.RunFor(0.1);
  EXPECT_EQ(deliveries, 2);
  // Exactly two transmissions: the beacon and its CTS-to-self (the SIFT
  // recognition pattern the paper requires) — and no ACKs.
  EXPECT_EQ(world.medium().NumTransmissions(), 2u);
}

TEST(Mac, RetriesUntilDropWhenReceiverGone) {
  World world;
  const Channel ch{5, ChannelWidth::kW20};
  Device& a = world.Create<Device>(At(0, 0, ch));
  Device& b = world.Create<Device>(At(50, 0, ch));
  // Receiver tunes away: data frames go unanswered.
  b.SwitchChannel(Channel{20, ChannelWidth::kW5});
  bool failed = false;
  a.AddSendCompleteHook([&](const Frame&, bool ok) { failed = !ok; });
  a.mac().Enqueue(Data(b.NodeId()));
  world.RunFor(2.0);
  EXPECT_TRUE(failed);
  EXPECT_EQ(a.mac().Drops(), 1u);
  // 1 + retry_limit attempts were transmitted.
  EXPECT_EQ(world.medium().NumTransmissions(),
            static_cast<std::uint64_t>(1 + kMaxTxAttempts));
}

TEST(Mac, QueueOverflowRejectsFrame) {
  World world;
  const Channel ch{5, ChannelWidth::kW5};
  DeviceConfig config = At(0, 0, ch);
  config.mac.max_queue = 2;
  Device& a = world.Create<Device>(config);
  EXPECT_TRUE(a.mac().Enqueue(Data(99)));
  EXPECT_TRUE(a.mac().Enqueue(Data(99)));
  EXPECT_FALSE(a.mac().Enqueue(Data(99)));
  EXPECT_EQ(a.mac().QueueDepth(), 2u);
}

TEST(Mac, ResetClearsQueueAndState) {
  World world;
  const Channel ch{5, ChannelWidth::kW5};
  Device& a = world.Create<Device>(At(0, 0, ch));
  a.mac().Enqueue(Data(99));
  a.mac().Enqueue(Data(99));
  a.mac().Reset();
  EXPECT_EQ(a.mac().QueueDepth(), 0u);
  EXPECT_TRUE(a.mac().Idle());
  world.RunFor(0.1);
  EXPECT_EQ(world.medium().NumTransmissions(), 0u);
}

TEST(Mac, TwoSaturatedSendersShareTheChannel) {
  World world;
  const Channel ch{10, ChannelWidth::kW20};
  Device& a = world.Create<Device>(At(0, 0, ch));
  Device& b = world.Create<Device>(At(30, 0, ch));
  Device& sink = world.Create<Device>(At(15, 15, ch));
  SaturatedSource sa(a, sink.NodeId(), 1000);
  SaturatedSource sb(b, sink.NodeId(), 1000);
  sa.Start();
  sb.Start();
  world.RunFor(3.0);
  const auto bytes = world.AppBytes(sink.NodeId());
  EXPECT_GT(bytes, 500000u);  // The channel is actually used...
  // ...and both senders got a non-trivial share (fairness sanity).
  EXPECT_GT(sa.Generated(), 100u);
  EXPECT_GT(sb.Generated(), 100u);
  const double ratio = static_cast<double>(sa.Generated()) /
                       static_cast<double>(sb.Generated());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(Mac, DuplicateDataDeliveredOnce) {
  // Force a lost ACK scenario indirectly: we just check the duplicate
  // filter logic by replaying the same sequence number.
  World world;
  const Channel ch{10, ChannelWidth::kW5};
  Device& a = world.Create<Device>(At(0, 0, ch));
  Device& b = world.Create<Device>(At(50, 0, ch));
  int received = 0;
  b.AddReceiveHook([&](const Frame& f) {
    if (f.type == FrameType::kData) ++received;
  });
  Frame f = Data(b.NodeId());
  f.src = a.NodeId();
  f.seq = 42;
  b.DeliverFrame(f, -40.0);
  b.DeliverFrame(f, -40.0);  // Retransmission of the same seq.
  world.RunFor(0.1);
  EXPECT_EQ(received, 1);
}

// ------------------------------------------------------------- fairness --

TEST(Fairness, JainIndexBasics) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 0.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({3.0, 3.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({1.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({0.0, 0.0}), 1.0);
  EXPECT_NEAR(JainFairnessIndex({1.0, 2.0, 3.0}), 36.0 / 42.0, 1e-12);
}

TEST(Fairness, DcfSharesFairlyAmongEqualClients) {
  // Three equal clients of a saturated downlink: Jain index near 1.
  World world;
  const Channel ch{10, ChannelWidth::kW20};
  Device& ap = world.Create<Device>(At(0, 0, ch));
  std::vector<int> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(world.Create<Device>(At(40.0 + 10 * i, 0, ch)).NodeId());
  }
  SaturatedSource downlink(ap, ids, 1000);
  downlink.Start();
  world.RunFor(5.0);
  std::vector<double> shares;
  for (int id : ids) shares.push_back(static_cast<double>(world.AppBytes(id)));
  EXPECT_GT(JainFairnessIndex(shares), 0.99);
}

// ---------------------------------------------------------------- traffic -

TEST(Traffic, CbrGeneratesAtConfiguredRate) {
  World world;
  const Channel ch{10, ChannelWidth::kW20};
  Device& a = world.Create<Device>(At(0, 0, ch));
  Device& b = world.Create<Device>(At(50, 0, ch));
  CbrSource cbr(a, b.NodeId(), 500, 30 * kTicksPerMs);
  cbr.Start();
  world.RunFor(3.0);
  EXPECT_NEAR(static_cast<double>(cbr.Generated()), 100.0, 2.0);
  EXPECT_NEAR(static_cast<double>(world.AppBytes(b.NodeId())), 100.0 * 500.0,
              2000.0);
}

TEST(Traffic, CbrPauseResume) {
  World world;
  const Channel ch{10, ChannelWidth::kW20};
  Device& a = world.Create<Device>(At(0, 0, ch));
  Device& b = world.Create<Device>(At(50, 0, ch));
  CbrSource cbr(a, b.NodeId(), 500, 10 * kTicksPerMs);
  cbr.Start();
  world.RunFor(1.0);
  const auto after_active = cbr.Generated();
  EXPECT_GT(after_active, 90u);
  cbr.SetActive(false);
  world.RunFor(1.0);
  EXPECT_EQ(cbr.Generated(), after_active);  // Silent while paused.
  cbr.SetActive(true);
  world.RunFor(1.0);
  EXPECT_GT(cbr.Generated(), after_active + 90);
}

TEST(Traffic, SaturatedSourceKeepsMacBusy) {
  World world;
  const Channel ch{10, ChannelWidth::kW20};
  Device& a = world.Create<Device>(At(0, 0, ch));
  Device& b = world.Create<Device>(At(50, 0, ch));
  SaturatedSource sat(a, b.NodeId(), 1000);
  sat.Start();
  world.RunFor(2.0);
  // 20 MHz / 6 Mbps with ~1 kB frames: expect on the order of 4-6 Mbps of
  // goodput; assert a generous lower bound and an upper physical bound.
  const double mbps =
      8.0 * static_cast<double>(world.AppBytes(b.NodeId())) / 2.0 / 1e6;
  EXPECT_GT(mbps, 3.0);
  EXPECT_LT(mbps, 6.0);
}

TEST(Traffic, SaturatedRoundRobinAcrossDestinations) {
  World world;
  const Channel ch{10, ChannelWidth::kW20};
  Device& ap = world.Create<Device>(At(0, 0, ch));
  Device& c1 = world.Create<Device>(At(50, 0, ch));
  Device& c2 = world.Create<Device>(At(0, 50, ch));
  SaturatedSource sat(ap, std::vector<int>{c1.NodeId(), c2.NodeId()}, 1000);
  sat.Start();
  world.RunFor(2.0);
  const auto b1 = world.AppBytes(c1.NodeId());
  const auto b2 = world.AppBytes(c2.NodeId());
  EXPECT_GT(b1, 100000u);
  EXPECT_GT(b2, 100000u);
  EXPECT_NEAR(static_cast<double>(b1) / static_cast<double>(b2), 1.0, 0.1);
}

TEST(Traffic, MarkovOnOffApproachesStationaryDuty) {
  World world;
  const Channel ch{10, ChannelWidth::kW20};
  Device& a = world.Create<Device>(At(0, 0, ch));
  Device& b = world.Create<Device>(At(50, 0, ch));
  MarkovOnOffSource::Params params;
  params.mean_active = 2 * kTicksPerSec;
  params.mean_passive = 6 * kTicksPerSec;
  MarkovOnOffSource source(a, b.NodeId(), 500, 10 * kTicksPerMs, params);
  EXPECT_NEAR(source.StationaryActive(), 0.25, 1e-9);
  source.Start();
  world.RunFor(120.0);
  // 120 s at 100 pkt/s when active, 25% duty => ~3000 packets (loose band).
  const double duty =
      static_cast<double>(source.cbr().Generated()) / (120.0 * 100.0);
  EXPECT_NEAR(duty, 0.25, 0.10);
}

// ---------------------------------------------------------------- world ---

TEST(World, DeviceRegistryAndSsids) {
  World world;
  const Channel ch{5, ChannelWidth::kW5};
  Device& a = world.Create<Device>(At(0, 0, ch, /*ssid=*/1));
  Device& b = world.Create<Device>(At(1, 0, ch, /*ssid=*/1));
  Device& c = world.Create<Device>(At(2, 0, ch, /*ssid=*/2));
  EXPECT_EQ(world.FindDevice(a.NodeId()), &a);
  EXPECT_EQ(world.FindDevice(9999), nullptr);
  EXPECT_EQ(world.NodesInSsid(1),
            (std::vector<int>{a.NodeId(), b.NodeId()}));
  EXPECT_EQ(world.NodesInSsid(2), (std::vector<int>{c.NodeId()}));
}

TEST(World, MicScheduleTransitions) {
  World world;
  std::vector<MicActivation> mics{{7, 1.0 * kSecond, 2.0 * kSecond}};
  world.SetMicSchedule(mics);
  EXPECT_FALSE(world.MicActiveNow(7));
  world.RunFor(1.5);
  EXPECT_TRUE(world.MicActiveNow(7));
  world.RunFor(1.0);
  EXPECT_FALSE(world.MicActiveNow(7));
}

TEST(World, MicFastPathNotifiesAffectedDevicesOnly) {
  World world;
  Device& on_channel =
      world.Create<Device>(At(0, 0, Channel{7, ChannelWidth::kW5}));
  Device& wide = world.Create<Device>(At(1, 0, Channel{8, ChannelWidth::kW10}));
  Device& elsewhere =
      world.Create<Device>(At(2, 0, Channel{20, ChannelWidth::kW5}));
  world.SetMicSchedule({{7, 0.5 * kSecond, 10.0 * kSecond}});
  world.RunFor(1.0);
  EXPECT_TRUE(on_channel.ObservedMap().Occupied(7));
  EXPECT_TRUE(wide.ObservedMap().Occupied(7));  // Spans 7..9.
  EXPECT_FALSE(elsewhere.ObservedMap().Occupied(7));
}

TEST(World, MicOnEdgeTellsATunedDeviceOnce) {
  World world;
  auto& narrow =
      world.Create<Told<Device>>(At(0, 0, Channel{7, ChannelWidth::kW5}));
  auto& wide =
      world.Create<Told<Device>>(At(1, 0, Channel{8, ChannelWidth::kW10}));
  auto& elsewhere =
      world.Create<Told<Device>>(At(2, 0, Channel{20, ChannelWidth::kW5}));
  world.SetMicSchedule({{7, 0.5 * kSecond, 10.0 * kSecond}});
  world.RunFor(2.0);
  const std::vector<std::pair<SimTime, UhfIndex>> once{
      {kTicksPerSec / 2 + world.config().incumbent_detect_latency, 7}};
  EXPECT_EQ(narrow.told, once);
  EXPECT_EQ(wide.told, once);  // Spans 7..9.
  EXPECT_TRUE(elsewhere.told.empty());
}

TEST(World, RetuneOntoALiveMicIsSensedByEveryRole) {
  World world;
  const Channel away{20, ChannelWidth::kW5};
  const Channel backup{25, ChannelWidth::kW5};
  auto& plain = world.Create<Told<Device>>(At(0, 0, away));
  auto& ap = world.Create<Told<ApNode>>(At(1, 0, away), ApParams{}, away,
                                        backup);
  auto& client = world.Create<Told<ClientNode>>(
      At(2, 0, away), ClientParams{}, away, backup, ap.NodeId());
  world.SetMicSchedule({{7, 0.5 * kSecond, 10.0 * kSecond}});
  world.RunFor(1.0);
  const Channel mic_channel{7, ChannelWidth::kW5};
  plain.SwitchChannel(mic_channel);
  ap.SwitchChannel(mic_channel);
  client.SwitchChannel(mic_channel);
  world.RunFor(1.0);
  const std::vector<std::pair<SimTime, UhfIndex>> once{
      {kTicksPerSec + DeviceConfig{}.tune_delay +
           world.config().incumbent_detect_latency,
       7}};
  EXPECT_EQ(plain.told, once);
  EXPECT_EQ(ap.told, once);
  EXPECT_EQ(client.told, once);
}

TEST(World, AMicTheNodeCannotHearIsNeverSensed) {
  World world;
  const Channel mic_channel{7, ChannelWidth::kW5};
  const Channel away{20, ChannelWidth::kW5};
  const Channel backup{25, ChannelWidth::kW5};
  auto& tuned = world.Create<Told<Device>>(At(0, 0, mic_channel));
  auto& retuned = world.Create<Told<ClientNode>>(
      At(1, 0, away), ClientParams{}, away, backup, /*ap_id=*/0);
  auto& hearer = world.Create<Told<ClientNode>>(
      At(2, 0, away), ClientParams{}, away, backup, /*ap_id=*/0);
  world.AddMic({7, 0.5 * kSecond, 10.0 * kSecond}, {hearer.NodeId()});
  world.RunFor(1.0);
  retuned.SwitchChannel(mic_channel);
  hearer.SwitchChannel(mic_channel);
  world.RunFor(1.0);
  EXPECT_TRUE(tuned.told.empty());
  EXPECT_TRUE(retuned.told.empty());
  EXPECT_EQ(hearer.told.size(), 1u);
}

TEST(World, RetuningAwayBeforeTheLatencyCancelsTheDetection) {
  World world;
  const Channel mic_channel{7, ChannelWidth::kW5};
  const Channel away{20, ChannelWidth::kW5};
  auto& edge = world.Create<Told<Device>>(At(0, 0, mic_channel));
  auto& retune = world.Create<Told<ClientNode>>(
      At(1, 0, away), ClientParams{}, away, Channel{25, ChannelWidth::kW5},
      /*ap_id=*/0);
  world.SetMicSchedule({{7, 0.5 * kSecond, 10.0 * kSecond}});
  world.RunFor(0.55);  // The edge's detection is due at 0.6 s.
  edge.SwitchChannel(away);
  retune.SwitchChannel(mic_channel);  // Settles at 0.555 s.
  world.RunFor(0.05);  // Its detection is due at 0.655 s.
  retune.SwitchChannel(away);
  world.RunFor(1.0);
  EXPECT_TRUE(edge.told.empty());
  EXPECT_TRUE(retune.told.empty());
}

TEST(World, MicLookupsTakeTheLatestMicTheNodeCanHear) {
  EventTrace trace;
  WorldConfig config;
  config.obs.trace = &trace;
  World world(config);
  const Channel away{20, ChannelWidth::kW5};
  Device& a = world.Create<Device>(At(0, 0, away));
  Device& b = world.Create<Device>(At(1, 0, away));
  // Channel 7: an earlier mic everyone hears, a later one only b hears.
  world.AddMic({7, 1.0 * kSecond, 10.0 * kSecond});
  world.AddMic({7, 2.0 * kSecond, 10.0 * kSecond}, {b.NodeId()});
  // Channel 9: two mics switching on together.
  world.AddMic({9, 1.0 * kSecond, 10.0 * kSecond});
  world.AddMic({9, 1.0 * kSecond, 10.0 * kSecond});
  // Channel 11: a mic only b hears.
  world.AddMic({11, 1.0 * kSecond, 10.0 * kSecond}, {b.NodeId()});
  world.RunFor(3.0);
  std::map<std::string, std::vector<std::int64_t>> flows;  // By mic channel.
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEventKind::kIncumbentOn) {
      flows[event.detail].push_back(event.flow_id);
    }
  }
  ASSERT_EQ(flows["mic ch7"].size(), 2u);
  ASSERT_EQ(flows["mic ch9"].size(), 2u);

  EXPECT_EQ(world.MicFlowId(7, a.NodeId()), flows["mic ch7"][0]);
  EXPECT_EQ(world.MicFlowId(7, b.NodeId()), flows["mic ch7"][1]);
  EXPECT_EQ(world.MicAudibleOnSince(7, a.NodeId()), 2 * kTicksPerSec);
  EXPECT_EQ(world.MicAudibleOnSince(7, b.NodeId()), 1 * kTicksPerSec);

  EXPECT_EQ(world.MicFlowId(9, a.NodeId()), flows["mic ch9"][0]);
  EXPECT_EQ(world.MicFlowId(9, b.NodeId()), flows["mic ch9"][0]);

  EXPECT_TRUE(world.MicActiveNow(11));
  EXPECT_FALSE(world.MicAudible(11, a.NodeId()));
  EXPECT_TRUE(world.MicAudible(11, b.NodeId()));
  EXPECT_EQ(world.MicFlowId(11, a.NodeId()), 0);
  EXPECT_EQ(world.MicAudibleOnSince(11, a.NodeId()), std::nullopt);
}

TEST(World, DetectLatencyTimesTheMicTheNodeCanHear) {
  MetricsRegistry metrics;
  WorldConfig config;
  config.obs.metrics = &metrics;
  World world(config);
  Device& node = world.Create<Device>(At(0, 0, Channel{7, ChannelWidth::kW5}));
  Device& other =
      world.Create<Device>(At(1, 0, Channel{20, ChannelWidth::kW5}));
  // A switches on at 1 s and everyone hears it; B switches on at 1.05 s,
  // before the node's detection of A is due, and only `other` hears it.
  world.AddMic({7, 1.0 * kSecond, 10.0 * kSecond});
  world.AddMic({7, 1.0 * kSecond + 50 * kMillisecond, 10.0 * kSecond},
               {other.NodeId()});
  world.RunFor(2.0);
  EXPECT_TRUE(node.ObservedMap().Occupied(7));
  const ExpHistogram& latency =
      metrics.GetHistogram("whitefi.sift.detect_latency_us").distribution();
  ASSERT_EQ(latency.Count(), 1u);
  EXPECT_EQ(latency.Min(), ToUs(world.config().incumbent_detect_latency));
}

TEST(World, AppByteAccountingAndReset) {
  World world;
  world.RecordAppBytes(3, 100);
  world.RecordAppBytes(3, 50);
  world.RecordAppBytes(4, 10);
  world.RecordAppBytes(4, -5);  // Ignored.
  EXPECT_EQ(world.AppBytes(3), 150u);
  EXPECT_EQ(world.AppBytes(4), 10u);
  world.ResetAppBytes();
  EXPECT_EQ(world.AppBytes(3), 0u);
}

TEST(World, ObservedMapCombinesTvAndMics) {
  World world;
  DeviceConfig config = At(0, 0, Channel{3, ChannelWidth::kW5});
  config.tv_map = SpectrumMap::FromOccupiedIndices({1});
  Device& d = world.Create<Device>(config);
  d.NoteMicObservation(5, true);
  EXPECT_TRUE(d.ObservedMap().Occupied(1));
  EXPECT_TRUE(d.ObservedMap().Occupied(5));
  EXPECT_EQ(d.ObservedMap().NumOccupied(), 2);
  d.NoteMicObservation(5, false);
  EXPECT_EQ(d.ObservedMap().NumOccupied(), 1);
}

// -------------------------------------------------------------- scanner ---

TEST(Scanner, MeasuresAirtimeOfForeignTraffic) {
  World world;
  const Channel busy_ch{7, ChannelWidth::kW5};
  // Foreign pair offering ~50% airtime on channel 7: 1000 B at 1.2 Mbps
  // (5 MHz) is ~7 ms air time per exchange; send every 14 ms.
  Device& ftx = world.Create<Device>(At(0, 0, busy_ch, /*ssid=*/9, true));
  Device& frx = world.Create<Device>(At(10, 0, busy_ch, /*ssid=*/9));
  CbrSource cbr(ftx, frx.NodeId(), 1000, 14 * kTicksPerMs);
  cbr.Start();

  DeviceConfig observer_config = At(5, 5, Channel{20, ChannelWidth::kW5},
                                    /*ssid=*/1);
  Device& observer = world.Create<Device>(observer_config);
  ScannerParams params;
  params.dwell = 100 * kTicksPerMs;
  params.airtime_noise_stddev = 0.0;
  Scanner scanner(observer, params);
  scanner.StartSweep();
  world.RunFor(7.0);  // Two+ full sweeps of 30 channels.
  EXPECT_GE(scanner.SweepsCompleted(), 2);
  const auto& obs = scanner.Observation();
  EXPECT_GT(obs[7].airtime, 0.25);
  EXPECT_LT(obs[7].airtime, 0.75);
  EXPECT_EQ(obs[7].ap_count, 1);  // One foreign AP active there.
  EXPECT_LT(obs[20].airtime, 0.05);
  EXPECT_EQ(obs[20].ap_count, 0);
}

TEST(Scanner, OwnSsidTrafficExcludedFromAirtime) {
  World world;
  const Channel ch{7, ChannelWidth::kW5};
  Device& mine = world.Create<Device>(At(0, 0, ch, /*ssid=*/1, true));
  Device& peer = world.Create<Device>(At(10, 0, ch, /*ssid=*/1));
  SaturatedSource sat(mine, peer.NodeId(), 1000);
  sat.Start();
  ScannerParams params;
  params.dwell = 100 * kTicksPerMs;
  params.airtime_noise_stddev = 0.0;
  Scanner scanner(peer, params);
  scanner.StartSweep();
  world.RunFor(7.0);
  // The channel is saturated, but it is all our own SSID's traffic.
  EXPECT_LT(scanner.Observation()[7].airtime, 0.1);
  EXPECT_EQ(scanner.Observation()[7].ap_count, 0);
}

TEST(Scanner, FlagsIncumbentsFromTvMapAndMics) {
  World world;
  DeviceConfig config = At(0, 0, Channel{20, ChannelWidth::kW5});
  config.tv_map = SpectrumMap::FromOccupiedIndices({2});
  Device& d = world.Create<Device>(config);
  ScannerParams params;
  params.dwell = 50 * kTicksPerMs;
  Scanner scanner(d, params);
  world.SetMicSchedule({{9, 0.0, 60.0 * kSecond}});
  scanner.StartSweep();
  world.RunFor(3.0);
  EXPECT_TRUE(scanner.Observation()[2].incumbent);
  EXPECT_TRUE(scanner.Observation()[9].incumbent);
  EXPECT_FALSE(scanner.Observation()[10].incumbent);
  EXPECT_TRUE(d.ObservedMap().Occupied(9));
}

TEST(Scanner, ChirpWatchHearsMatchingSsidOnly) {
  World world;
  const Channel backup{12, ChannelWidth::kW5};
  Device& chirper = world.Create<Device>(At(0, 0, backup, /*ssid=*/1));
  Device& ap = world.Create<Device>(At(10, 0, Channel{5, ChannelWidth::kW20},
                                       /*ssid=*/1, true));
  ScannerParams params;
  params.chirp_scan_interval = 500 * kTicksPerMs;
  params.chirp_scan_dwell = 400 * kTicksPerMs;
  Scanner scanner(ap, params);
  int heard = 0;
  scanner.StartChirpWatch(backup, /*ssid=*/1,
                          [&](const ChirpInfo&, const Channel& on) {
                            EXPECT_EQ(on, backup);
                            ++heard;
                          });
  // Chirp every 100 ms with ssid 1 and ssid 2.
  for (int i = 1; i <= 20; ++i) {
    world.sim().Schedule(i * 100 * kTicksPerMs, [&chirper, i] {
      Frame chirp;
      chirp.type = FrameType::kChirp;
      chirp.dst = kBroadcastId;
      chirp.bytes = 60;
      chirp.payload = ChirpInfo{SpectrumMap{}, EmptyBandObservation(),
                                i % 2 == 0 ? 1 : 2, chirper.NodeId()};
      chirper.mac().Enqueue(chirp);
    });
  }
  world.RunFor(2.5);
  EXPECT_GT(heard, 0);
  EXPECT_LE(heard, 10);  // Never hears the foreign-SSID chirps.
}

}  // namespace
}  // namespace whitefi
