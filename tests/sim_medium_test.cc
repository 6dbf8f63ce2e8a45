// Tests for the radio medium: exact-channel delivery, width dropping,
// cross-width carrier sense, SINR collisions, airtime books, frame taps,
// half-duplex behavior, ghost interference and record collection.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/medium.h"
#include "util/units.h"

namespace whitefi {
namespace {

/// Minimal scriptable radio for medium-level tests.
class FakeRadio : public RadioPort {
 public:
  FakeRadio(int id, Position pos, Channel channel, bool is_ap = false)
      : id_(id), pos_(pos), channel_(channel), is_ap_(is_ap) {}

  int NodeId() const override { return id_; }
  Position Location() const override { return pos_; }
  const Channel& TunedChannel() const override { return channel_; }
  bool RxEnabled() const override { return rx_enabled; }
  bool IsAp() const override { return is_ap_; }
  void DeliverFrame(const Frame& frame, Dbm power) override {
    delivered.push_back(frame);
    powers.push_back(power);
  }
  void MediumChanged() override { ++medium_changes; }

  void Tune(const Channel& c) { channel_ = c; }

  bool rx_enabled = true;
  std::vector<Frame> delivered;
  std::vector<Dbm> powers;
  int medium_changes = 0;

 private:
  int id_;
  Position pos_;
  Channel channel_;
  bool is_ap_;
};

Frame DataFrame(int src, int dst, int bytes = 1028) {
  Frame f;
  f.type = FrameType::kData;
  f.src = src;
  f.dst = dst;
  f.bytes = bytes;
  return f;
}

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : medium_(sim_, MediumParams{}) {}

  Simulator sim_;
  Medium medium_;
};

TEST_F(MediumTest, DeliversToSameChannelRadio) {
  const Channel ch{10, ChannelWidth::kW20};
  FakeRadio tx(1, {0, 0}, ch), rx(2, {100, 0}, ch);
  medium_.Register(&tx);
  medium_.Register(&rx);
  bool ended = false;
  medium_.Transmit(&tx, ch, DataFrame(1, 2), 16.0, 200, [&] { ended = true; });
  sim_.Run(1000);
  EXPECT_TRUE(ended);
  ASSERT_EQ(rx.delivered.size(), 1u);
  EXPECT_EQ(rx.delivered[0].src, 1);
  EXPECT_TRUE(tx.delivered.empty());  // Sender does not hear itself.
  // Received power matches propagation at 100 m.
  EXPECT_NEAR(rx.powers[0], 16.0 - (28.0 + 22.0 * 2.0), 1e-6);
}

TEST_F(MediumTest, DropsDifferentWidthSameCenter) {
  // Paper 5.4: "we explicitly drop packets that were sent at a different
  // channel width".
  const Channel tx_ch{10, ChannelWidth::kW20};
  const Channel rx_ch{10, ChannelWidth::kW10};
  FakeRadio tx(1, {0, 0}, tx_ch), rx(2, {50, 0}, rx_ch);
  medium_.Register(&tx);
  medium_.Register(&rx);
  medium_.Transmit(&tx, tx_ch, DataFrame(1, 2), 16.0, 200, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(rx.delivered.empty());
  // But the overlapping-energy notification did fire (carrier sense).
  EXPECT_GT(rx.medium_changes, 0);
}

TEST_F(MediumTest, DropsDifferentCenterSameWidth) {
  const Channel a{5, ChannelWidth::kW5};
  const Channel b{6, ChannelWidth::kW5};
  FakeRadio tx(1, {0, 0}, a), rx(2, {50, 0}, b);
  medium_.Register(&tx);
  medium_.Register(&rx);
  medium_.Transmit(&tx, a, DataFrame(1, 2), 16.0, 200, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(rx.delivered.empty());
  EXPECT_EQ(rx.medium_changes, 0);  // No spectral overlap either.
}

TEST_F(MediumTest, NoDeliveryWhileRxDisabled) {
  const Channel ch{10, ChannelWidth::kW5};
  FakeRadio tx(1, {0, 0}, ch), rx(2, {50, 0}, ch);
  rx.rx_enabled = false;  // PLL retuning.
  medium_.Register(&tx);
  medium_.Register(&rx);
  medium_.Transmit(&tx, ch, DataFrame(1, 2), 16.0, 200, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(rx.delivered.empty());
}

TEST_F(MediumTest, CarrierSenseAcrossOverlappingWidths) {
  // A 20 MHz transmission spanning channels 8..12 must be sensed by a
  // 5 MHz radio on channel 12 but not by one on channel 13 — the paper's
  // carrier-sense modification.
  const Channel wide{10, ChannelWidth::kW20};
  FakeRadio tx(1, {0, 0}, wide);
  FakeRadio on12(2, {50, 0}, Channel{12, ChannelWidth::kW5});
  FakeRadio on13(3, {50, 0}, Channel{13, ChannelWidth::kW5});
  medium_.Register(&tx);
  medium_.Register(&on12);
  medium_.Register(&on13);
  medium_.Transmit(&tx, wide, DataFrame(1, 99), 16.0, 500, nullptr);
  sim_.Run(100);  // Mid-transmission.
  EXPECT_TRUE(medium_.CarrierSensed(on12, on12.TunedChannel()));
  EXPECT_FALSE(medium_.CarrierSensed(on13, on13.TunedChannel()));
  // A node never senses its own transmission as foreign carrier.
  EXPECT_FALSE(medium_.CarrierSensed(tx, wide));
  EXPECT_TRUE(medium_.Transmitting(tx));
  sim_.Run(1000);
  EXPECT_FALSE(medium_.CarrierSensed(on12, on12.TunedChannel()));
  EXPECT_FALSE(medium_.Transmitting(tx));
}

TEST_F(MediumTest, CollisionDestroysBothFrames) {
  const Channel ch{10, ChannelWidth::kW5};
  FakeRadio a(1, {0, 0}, ch), b(2, {10, 0}, ch), rx(3, {5, 5}, ch);
  medium_.Register(&a);
  medium_.Register(&b);
  medium_.Register(&rx);
  medium_.Transmit(&a, ch, DataFrame(1, 3), 16.0, 200, nullptr);
  medium_.Transmit(&b, ch, DataFrame(2, 3), 16.0, 200, nullptr);
  sim_.Run(1000);
  // Comparable powers => SINR ~ 0 dB < 10 dB threshold for both.
  EXPECT_TRUE(rx.delivered.empty());
}

TEST_F(MediumTest, CaptureWhenInterfererIsWeak) {
  const Channel ch{10, ChannelWidth::kW5};
  FakeRadio near_tx(1, {0, 0}, ch);
  FakeRadio far_tx(2, {5000, 0}, ch);  // ~75 dB weaker at the receiver.
  FakeRadio rx(3, {10, 0}, ch);
  medium_.Register(&near_tx);
  medium_.Register(&far_tx);
  medium_.Register(&rx);
  medium_.Transmit(&near_tx, ch, DataFrame(1, 3), 16.0, 200, nullptr);
  medium_.Transmit(&far_tx, ch, DataFrame(2, 3), 16.0, 200, nullptr);
  sim_.Run(1000);
  // The near frame captures; the far one is buried.
  ASSERT_EQ(rx.delivered.size(), 1u);
  EXPECT_EQ(rx.delivered[0].src, 1);
}

TEST_F(MediumTest, HalfDuplexReceiverMissesWhileTransmitting) {
  const Channel ch{10, ChannelWidth::kW5};
  FakeRadio a(1, {0, 0}, ch), b(2, {10, 0}, ch);
  medium_.Register(&a);
  medium_.Register(&b);
  // b transmits during a's frame; b must not receive a's frame.
  medium_.Transmit(&a, ch, DataFrame(1, 2), 16.0, 300, nullptr);
  sim_.Run(50);
  medium_.Transmit(&b, ch, DataFrame(2, 1), 16.0, 100, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(b.delivered.empty());
}

TEST_F(MediumTest, AirtimeBooksTrackBusyTime) {
  const Channel wide{10, ChannelWidth::kW20};  // Spans 8..12.
  FakeRadio tx(1, {0, 0}, wide, /*is_ap=*/true);
  medium_.Register(&tx);
  const AirtimeBooks before = medium_.SnapshotBooks();
  medium_.Transmit(&tx, wide, DataFrame(1, 99), 16.0, 400, nullptr);
  sim_.Run(1000);
  const AirtimeBooks after = medium_.SnapshotBooks();
  for (UhfIndex c = 8; c <= 12; ++c) {
    const auto i = static_cast<std::size_t>(c);
    EXPECT_DOUBLE_EQ(after[i].busy - before[i].busy, 400.0) << c;
    EXPECT_DOUBLE_EQ(after[i].per_node.at(1), 400.0) << c;
  }
  EXPECT_DOUBLE_EQ(after[7].busy, before[7].busy);
  EXPECT_DOUBLE_EQ(after[13].busy, before[13].busy);
}

TEST_F(MediumTest, OverlappingTransmissionsBusyTimeIsUnion) {
  const Channel ch{5, ChannelWidth::kW5};
  FakeRadio a(1, {0, 0}, ch), b(2, {10, 0}, ch);
  medium_.Register(&a);
  medium_.Register(&b);
  medium_.Transmit(&a, ch, DataFrame(1, 9), 16.0, 300, nullptr);
  sim_.Run(100);
  medium_.Transmit(&b, ch, DataFrame(2, 9), 16.0, 300, nullptr);  // 100..400.
  sim_.Run(1000);
  const AirtimeBooks books = medium_.SnapshotBooks();
  // Union busy time is 400 us, not 600.
  EXPECT_DOUBLE_EQ(books[5].busy, 400.0);
  // Per-node books carry each transmitter's own air time.
  EXPECT_DOUBLE_EQ(books[5].per_node.at(1), 300.0);
  EXPECT_DOUBLE_EQ(books[5].per_node.at(2), 300.0);
}

TEST_F(MediumTest, ActiveApsBetweenSnapshotsAndApIds) {
  const Channel ch{3, ChannelWidth::kW5};
  FakeRadio ap(1, {0, 0}, ch, /*is_ap=*/true);
  FakeRadio client(2, {10, 0}, ch, /*is_ap=*/false);
  medium_.Register(&ap);
  medium_.Register(&client);
  EXPECT_EQ(medium_.ApIds(), (std::vector<int>{1}));
  const AirtimeBooks before = medium_.SnapshotBooks();
  medium_.Transmit(&ap, ch, DataFrame(1, 2), 16.0, 100, nullptr);
  sim_.Run(1000);
  const AirtimeBooks after = medium_.SnapshotBooks();
  EXPECT_EQ(Medium::ActiveApsBetween(before, after, 3, {1, 2}),
            (std::vector<int>{1}));
  EXPECT_TRUE(Medium::ActiveApsBetween(before, after, 4, {1, 2}).empty());
  EXPECT_TRUE(Medium::ActiveApsBetween(after, after, 3, {1, 2}).empty());
}

TEST_F(MediumTest, FrameTapSeesEveryTransmission) {
  const Channel ch{3, ChannelWidth::kW5};
  FakeRadio tx(1, {0, 0}, ch);
  medium_.Register(&tx);
  int taps = 0;
  Channel tapped_channel{0, ChannelWidth::kW5};
  medium_.AddFrameTap([&](const Channel& c, const Frame& f, const RadioPort& r) {
    ++taps;
    tapped_channel = c;
    EXPECT_EQ(f.type, FrameType::kChirp);
    EXPECT_EQ(r.NodeId(), 1);
  });
  Frame chirp;
  chirp.type = FrameType::kChirp;
  chirp.src = 1;
  chirp.bytes = 60;
  medium_.Transmit(&tx, ch, chirp, 16.0, 100, nullptr);
  sim_.Run(1000);
  EXPECT_EQ(taps, 1);
  EXPECT_EQ(tapped_channel, ch);
}

TEST_F(MediumTest, UnregisterStopsDelivery) {
  const Channel ch{3, ChannelWidth::kW5};
  FakeRadio tx(1, {0, 0}, ch), rx(2, {10, 0}, ch);
  medium_.Register(&tx);
  medium_.Register(&rx);
  medium_.Unregister(&rx);
  medium_.Transmit(&tx, ch, DataFrame(1, 2), 16.0, 100, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(rx.delivered.empty());
}

TEST_F(MediumTest, FarAwayReceiverBelowSnrGetsNothing) {
  MediumParams params;
  params.propagation.exponent = 3.5;  // Harsh environment for this test.
  Medium medium(sim_, params);
  const Channel ch{3, ChannelWidth::kW5};
  FakeRadio tx(1, {0, 0}, ch), rx(2, {20000, 0}, ch);
  medium.Register(&tx);
  medium.Register(&rx);
  medium.Transmit(&tx, ch, DataFrame(1, 2), 16.0, 100, nullptr);
  sim_.Run(1000);
  EXPECT_TRUE(rx.delivered.empty());
}

// ------------------------------------------------------ ghost interference ---

/// What one local Data reception looked like under one interferer.
struct Reception {
  std::vector<int> delivered_data;  ///< Data frame sources at the receiver.
  std::uint64_t rx_data = 0;
  std::uint64_t drop_data = 0;
  std::uint64_t beacons_seen = 0;   ///< Interferer frames delivered/dropped.

  bool operator==(const Reception&) const = default;
};

/// Sends one Data frame 0 -> 400 m on ch 10 (5 MHz) while node 3 at
/// `at` sends a Beacon on `channel` from `start`: as a local transmitter
/// that does not listen, or as a ghost injected into the medium.
Reception ReceiveUnder(bool ghost, Position at, Channel channel,
                       SimTime start) {
  Simulator sim;
  MetricsRegistry metrics;
  Medium medium(sim, MediumParams{});
  Observability obs;
  obs.metrics = &metrics;
  medium.SetObservability(obs);
  const Channel ch{10, ChannelWidth::kW5};
  FakeRadio tx(1, {0, 0}, ch), rx(2, {400, 0}, ch);
  FakeRadio interferer(3, at, channel);
  medium.Register(&tx);
  medium.Register(&rx);
  Frame beacon;
  beacon.type = FrameType::kBeacon;
  beacon.src = 3;
  beacon.bytes = 300;
  sim.Schedule(start, [&] {
    if (ghost) {
      medium.InjectForeignEnergy(3, /*is_ap=*/true, at, channel, beacon, 16.0,
                                 300);
    } else {
      medium.Transmit(&interferer, channel, beacon, 16.0, 300, nullptr);
    }
  });
  sim.Schedule(100, [&] {
    medium.Transmit(&tx, ch, DataFrame(1, 2), 16.0, 300, nullptr);
  });
  sim.RunUntilIdle();
  Reception out;
  for (const Frame& f : rx.delivered) {
    if (f.type == FrameType::kData) out.delivered_data.push_back(f.src);
  }
  out.rx_data = metrics.GetCounter("whitefi.medium.rx.Data").value();
  out.drop_data = metrics.GetCounter("whitefi.medium.drop.Data").value();
  out.beacons_seen = metrics.GetCounter("whitefi.medium.rx.Beacon").value() +
                     metrics.GetCounter("whitefi.medium.drop.Beacon").value();
  return out;
}

TEST(GhostInterference, DropsOrDeliversExactlyAsALocalTransmitterWould) {
  int drops = 0;
  int deliveries = 0;
  for (const double x : {450.0, 900.0, 1500.0, 2500.0, 20000.0}) {
    for (const Channel channel :
         {Channel{10, ChannelWidth::kW5}, Channel{10, ChannelWidth::kW20},
          Channel{20, ChannelWidth::kW5}}) {
      for (const SimTime start : {SimTime{0}, SimTime{250}}) {
        const Reception local = ReceiveUnder(false, {x, 0}, channel, start);
        const Reception ghost = ReceiveUnder(true, {x, 0}, channel, start);
        EXPECT_EQ(ghost.delivered_data, local.delivered_data)
            << "x=" << x << " " << channel.ToString() << " start=" << start;
        EXPECT_EQ(ghost.rx_data, local.rx_data);
        EXPECT_EQ(ghost.drop_data, local.drop_data);
        EXPECT_EQ(ghost.rx_data + ghost.drop_data, 1u);
        // A ghost is never delivered, nor counted as a drop.
        EXPECT_EQ(ghost.beacons_seen, 0u);
        drops += static_cast<int>(ghost.drop_data);
        deliveries += static_cast<int>(ghost.rx_data);
      }
    }
  }
  // Both outcomes occur, so the comparison above is not vacuous.
  EXPECT_GT(drops, 0);
  EXPECT_GT(deliveries, 0);
}

TEST_F(MediumTest, RetainedRecordsStayBoundedUnderContinuousTraffic) {
  // Two radios alternate 600 us frames every 500 us for 5 s, so the air is
  // never idle and only the 1 s rule collects ended records.
  constexpr SimTime kSpacing = 500;
  constexpr SimTime kRun = 5 * kTicksPerSec;
  const Channel ch{4, ChannelWidth::kW5};
  FakeRadio a(1, {0, 0}, ch), b(2, {10, 0}, ch);
  medium_.Register(&a);
  medium_.Register(&b);
  std::size_t peak = 0;
  for (SimTime t = 0; t < kRun; t += kSpacing) {
    FakeRadio* tx = (t / kSpacing) % 2 == 0 ? &a : &b;
    sim_.Schedule(t, [this, tx, ch, &peak] {
      medium_.Transmit(tx, ch, DataFrame(tx->NodeId(), -1), 16.0, 600,
                       nullptr);
      peak = std::max(peak, medium_.RetainedRecords());
    });
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(medium_.NumTransmissions(),
            static_cast<std::uint64_t>(kRun / kSpacing));
  // The last second of records (plus those on the air) and no more.
  const auto per_second = static_cast<std::size_t>(kTicksPerSec / kSpacing);
  EXPECT_GE(peak, per_second);
  EXPECT_LE(peak, per_second + 3);
  // Once nothing is on the air, every record is dead.
  EXPECT_EQ(medium_.RetainedRecords(), 0u);
}

// ------------------------------------------------- per-channel fast path ---

/// One transmission of a randomized storm, as the test's ground truth.
struct StormRecord {
  SimTime start;
  SimTime end;
  Channel channel;
  int node;
  Dbm power;
};

/// Exhaustive-reference carrier sense: walk EVERY storm transmission
/// active at `now`, applying the same physics as Medium::CarrierSensed.
/// Pins the per-channel index against the full scan it replaced.
bool ReferenceCarrierSense(const std::vector<StormRecord>& records,
                           const std::vector<FakeRadio>& radios, SimTime now,
                           const FakeRadio& listener, const Channel& channel,
                           const MediumParams& params,
                           const PropagationModel& prop) {
  for (const StormRecord& r : records) {
    if (!(r.start <= now && now < r.end)) continue;
    if (!r.channel.Overlaps(channel)) continue;
    if (r.node == listener.NodeId()) continue;
    const Dbm p =
        prop.ReceivedPower(r.power, radios[static_cast<std::size_t>(r.node)]
                                        .Location(),
                           listener.Location());
    if (r.channel == channel) {
      if (p >= params.same_channel_cs_dbm) return true;
    } else {
      const Dbm in_band = p + LinearToDb(InBandPowerFraction(r.channel, channel));
      if (in_band >= params.energy_detect_cs_dbm) return true;
    }
  }
  return false;
}

TEST_F(MediumTest, RandomStormBooksMatchIntervalUnion) {
  // Randomized dense-overlap storm: the per-channel transmission index and
  // lazy per-channel accrual must produce airtime books EXACTLY equal (the
  // sums involve only integer-valued doubles) to the interval unions the
  // test computes from first principles.
  std::vector<FakeRadio> radios;
  radios.reserve(static_cast<std::size_t>(kNumUhfChannels));
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    radios.emplace_back(c, Position{40.0 * c, 0.0},
                        Channel{c, ChannelWidth::kW5});
  }
  for (FakeRadio& r : radios) medium_.Register(&r);

  std::mt19937 rng(98107);
  std::vector<StormRecord> records;
  for (int i = 0; i < 300; ++i) {
    StormRecord rec;
    // Even starts and durations keep probe times (odd) strictly between
    // transition events.
    rec.start = static_cast<SimTime>(rng() % 10000) * 2;
    rec.end = rec.start + 2 * (1 + static_cast<SimTime>(rng() % 200));
    const auto width = static_cast<ChannelWidth>(rng() % 3);
    const int half = SpanChannels(width) / 2;
    rec.node = half + static_cast<int>(rng() % (kNumUhfChannels - 2 * half));
    rec.channel = Channel{rec.node, width};
    ASSERT_TRUE(rec.channel.IsValid());
    rec.power = 16.0;
    records.push_back(rec);
  }
  for (const StormRecord& rec : records) {
    sim_.Schedule(rec.start, [this, &radios, rec] {
      medium_.Transmit(&radios[static_cast<std::size_t>(rec.node)], rec.channel,
                       DataFrame(rec.node, -1), rec.power, rec.end - rec.start,
                       nullptr);
    });
  }

  // Probes at odd times: carrier sense and Transmitting() must match the
  // exhaustive reference scan, mid-flight.
  int probes_sensed = 0;
  for (SimTime t = 1001; t < 20000; t += 2000) {
    sim_.Schedule(t, [this, &radios, &records, t, &probes_sensed] {
      for (UhfIndex c = 0; c < kNumUhfChannels; c += 5) {
        const FakeRadio& listener = radios[static_cast<std::size_t>(c)];
        for (const Channel probe :
             {Channel{c, ChannelWidth::kW5},
              Channel{std::clamp(c, 2, kNumUhfChannels - 3),
                      ChannelWidth::kW20}}) {
          const bool sensed = medium_.CarrierSensed(listener, probe);
          EXPECT_EQ(sensed,
                    ReferenceCarrierSense(records, radios, t, listener, probe,
                                          medium_.params(),
                                          medium_.propagation()))
              << "t=" << t << " listener=" << c;
          probes_sensed += sensed ? 1 : 0;
        }
        bool ref_transmitting = false;
        for (const StormRecord& r : records) {
          ref_transmitting |=
              r.node == c && r.start <= t && t < r.end;
        }
        EXPECT_EQ(medium_.Transmitting(listener), ref_transmitting);
      }
    });
  }

  // Mid-stream snapshot (forces lazy accrual at an arbitrary boundary).
  AirtimeBooks mid{};
  sim_.Schedule(10001, [this, &mid] { mid = medium_.SnapshotBooks(); });
  sim_.RunUntilIdle();
  const AirtimeBooks books = medium_.SnapshotBooks();

  EXPECT_GT(probes_sensed, 0);  // The storm is dense; probes must hit.
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    // Interval union over transmissions spanning channel c.
    std::vector<std::pair<SimTime, SimTime>> spans;
    double per_node_total = 0.0;
    std::map<int, double> per_node;
    for (const StormRecord& r : records) {
      if (r.channel.Low() <= c && c <= r.channel.High()) {
        spans.emplace_back(r.start, r.end);
        per_node[r.node] += ToUs(r.end - r.start);
        per_node_total += ToUs(r.end - r.start);
      }
    }
    std::sort(spans.begin(), spans.end());
    SimTime busy = 0;
    SimTime mid_busy = 0;
    SimTime covered_until = 0;
    for (const auto& [start, end] : spans) {
      const SimTime from = std::max(start, covered_until);
      if (end > from) {
        busy += end - from;
        mid_busy += std::max<SimTime>(0, std::min<SimTime>(end, 10001) - from);
        covered_until = end;
      }
    }
    const auto ci = static_cast<std::size_t>(c);
    EXPECT_EQ(books[ci].busy, ToUs(busy)) << "channel " << c;
    EXPECT_EQ(mid[ci].busy, ToUs(mid_busy)) << "channel " << c;
    double node_sum = 0.0;
    for (const auto& [node, total] : per_node) {
      const auto it = books[ci].per_node.find(node);
      ASSERT_NE(it, books[ci].per_node.end());
      EXPECT_EQ(it->second, total) << "channel " << c << " node " << node;
      node_sum += total;
    }
    EXPECT_EQ(node_sum, per_node_total);
  }
}

}  // namespace
}  // namespace whitefi
