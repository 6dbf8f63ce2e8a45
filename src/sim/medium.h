// The shared radio medium.
//
// Implements the paper's QualNet modifications faithfully:
//  * variable-width channels: a frame is decodable only by radios tuned to
//    exactly the same (F, W) — "at every node, we explicitly drop packets
//    that were sent at a different channel width";
//  * energy-based carrier sense across overlapping channels of different
//    widths: a node spanning multiple UHF channels senses busy if ANY of
//    its spanned UHF channels carries energy above threshold;
//  * SINR-based reception with cumulative interference from time-
//    overlapping transmissions and width-scaled noise floors;
//  * half-duplex radios.
//
// The medium also keeps per-UHF-channel airtime books (union busy time and
// cumulative per-transmitter air time) that the scanner model reads to
// produce the A_c / B_c observations feeding the MCham metric.
//
// Fast path (DESIGN.md §10): active transmissions are indexed per UHF
// channel, so Transmit/CarrierSensed only examine transmissions whose
// spectrum actually overlaps the frame at hand instead of scanning every
// transmission on the air, and the airtime books accrue lazily per channel
// (one timestamp each) instead of walking all 30 channels on every
// transmit/end.  Sim time is integer microseconds and `ToUs` is exact, so
// the lazily-partitioned busy sums are bit-equal to the eager walk.
// Transmission records live in one ring indexed by their dense, monotone
// ids, so a lookup is an index and a transmission allocates no map node.
// Deliveries and carrier notifications walk one contiguous table of each
// radio's tuned channel and rx-enable time, so a transmission makes no
// virtual call on a radio it cannot reach.  Each ordered pair of
// registered radios has one cached link budget (path loss and received
// milliwatts, the same doubles the formulas give), dropped when either
// radio moves (Medium::Moved); carrier sense returns at once when no
// spanned channel carries a transmission.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "fault/fault.h"
#include "obs/obs.h"
#include "sim/events.h"
#include "sim/frame.h"
#include "sim/propagation.h"
#include "spectrum/channel.h"
#include "spectrum/uhf.h"
#include "util/units.h"

namespace whitefi {

/// Radio/medium configuration.
struct MediumParams {
  PropagationParams propagation;
  /// Carrier sense against a transmission on exactly our (F, W): preamble
  /// detection works, so the threshold is low (long range).
  Dbm same_channel_cs_dbm = -85.0;
  /// Carrier sense against an overlapping transmission of a different
  /// width or center: the radio cannot synchronize to it and falls back to
  /// energy detection (802.11-style ~-62 dBm), applied to the fraction of
  /// the foreign signal's power that lands in our band.  This asymmetry is
  /// what makes wide channels fragile over busy narrow channels: distant
  /// narrow transmitters are deaf to the wide signal and collide with it.
  Dbm energy_detect_cs_dbm = -62.0;
  /// Minimum SINR to decode.  Set well above the AWGN requirement: a frame
  /// overlapped by an unsynchronized foreign transmission (the cross-width
  /// collision case) needs a large margin to survive, which is what makes
  /// wide channels degrade over busy narrow channels as in the paper.
  double decode_snr_db = 16.0;
};

/// Fraction of a transmission's power (linear, <= 1) that falls within the
/// listener's band: spanned-UHF-channel overlap over the transmitter span.
double InBandPowerFraction(const Channel& tx, const Channel& listener);

/// A frame-shaped trace record: the acting `node` and the frame's src,
/// dst, bytes and type.
TraceEvent FrameEvent(SimTime at, TraceEventKind kind, int node,
                      const Frame& frame, std::string detail);

/// Appends FrameEvent(..., detail()) to `trace`.  An untraced run (null
/// `trace`) pays one branch; a kind the trace filters out is only
/// counted, and `detail` is called only for a kind it wants.
template <typename Detail>
void TraceFrame(EventTrace* trace, SimTime at, TraceEventKind kind, int node,
                const Frame& frame, Detail detail) {
  if (trace == nullptr) return;
  if (!trace->Wants(kind)) {
    trace->CountSkipped(kind);
    return;
  }
  trace->Append(FrameEvent(at, kind, node, frame, detail()));
}

class Medium;

/// Medium-facing view of one radio.  Registered by devices.
class RadioPort {
 public:
  virtual ~RadioPort() = default;

  /// Stable node id.
  virtual int NodeId() const = 0;

  /// Physical location.  The medium caches the link budgets between
  /// registered radios, so a registered radio's position changes only
  /// together with Medium::Moved (see Device::SetPosition).
  virtual Position Location() const = 0;

  /// Channel the main radio is tuned to.  The medium keeps its own copy,
  /// set at Register and by Medium::Retune.
  virtual const Channel& TunedChannel() const = 0;

  /// True iff the registered node is an access point (used for the B_c
  /// "interfering APs" books).
  virtual bool IsAp() const = 0;

  /// Called when a frame ends and passes the decode checks at this radio.
  virtual void DeliverFrame(const Frame& frame, Dbm rx_power) = 0;

  /// Called whenever a transmission starts or ends anywhere on spectrum
  /// overlapping this radio's channel (MACs re-evaluate carrier here).
  virtual void MediumChanged() = 0;

 private:
  friend class Medium;
  /// The radio's slot in the medium it is registered with, which indexes
  /// that medium's link-budget cache; -1 while unregistered.  Written by
  /// Medium::Register and Unregister only.
  int link_slot_ = -1;
};

/// Cumulative airtime books for one UHF channel.
struct ChannelBooks {
  Us busy = 0.0;  ///< Union busy air time since simulation start.
  std::map<int, Us> per_node;  ///< Cumulative air time by transmitter id.
};

/// The shared medium.
class Medium {
 public:
  Medium(Simulator& sim, const MediumParams& params);

  /// Registers a radio, listening on its tuned channel from now on; it
  /// must outlive the medium or be unregistered.  A radio is registered
  /// with one medium at a time, and only that medium is asked about it.
  void Register(RadioPort* radio);

  /// Unregisters a radio.
  void Unregister(RadioPort* radio);

  /// Records that `radio` moved: drops its cached link budgets, so the
  /// next carrier-sense query or reception reads its new position.  The
  /// position twin of Retune: every position change of a registered radio
  /// must be reported here.  A retune changes no link budget.
  void Moved(const RadioPort& radio);

  /// Records that `radio` is now tuned to `channel` and deaf until
  /// `rx_enabled_at` (the PLL retune).  Carrier notifications and
  /// deliveries read the medium's own table, never the radio, so every
  /// retune of a registered radio must be reported here.
  void Retune(const RadioPort* radio, const Channel& channel,
              SimTime rx_enabled_at);

  /// Starts a transmission of `frame` on `channel` lasting `duration`.
  /// Delivery and notifications are handled internally; the caller gets
  /// `on_end` invoked when the air time elapses.
  void Transmit(RadioPort* tx, const Channel& channel, const Frame& frame,
                Dbm tx_power, SimTime duration, std::function<void()> on_end);

  /// Injects cross-shard "ghost" energy: a transmission by `node_id`, a
  /// node that lives in another shard, radiating from `position` at
  /// `tx_power` for `duration` starting now.  The ghost keeps `position`
  /// until it is collected, even if its node moves.  It participates in
  /// carrier sense, SINR interference, the airtime books, and the frame
  /// taps exactly like a local transmission — so scanners measure it and
  /// chirp watches hear it — but it is never delivered to any radio (its
  /// frames terminate in the owning shard) and it never re-fires the
  /// energy taps (a ghost must not be re-exported across a boundary).
  /// See src/shard for the boundary that feeds this.
  void InjectForeignEnergy(int node_id, bool is_ap, const Position& position,
                           const Channel& channel, const Frame& frame,
                           Dbm tx_power, SimTime duration);

  /// True iff energy above the CS threshold from a foreign transmission is
  /// present on any UHF channel spanned by `channel`, as seen at `radio`.
  bool CarrierSensed(const RadioPort& radio, const Channel& channel) const;

  /// True iff `radio` itself is currently transmitting.
  bool Transmitting(const RadioPort& radio) const;

  /// Brings UHF channel `c`'s airtime books current and returns a
  /// reference, the one read path for the books.  The reference stays
  /// valid until the medium is destroyed but its contents advance with
  /// simulated time; copy the ChannelBooks to freeze a "before" point.
  const ChannelBooks& ChannelBooksAt(UhfIndex c);

  /// Set of AP node ids with non-zero air time between two copies of one
  /// channel's books (helper for B_c estimation).
  static std::vector<int> ActiveApsBetween(const ChannelBooks& before,
                                           const ChannelBooks& after,
                                           const std::vector<int>& ap_ids);

  /// Number of transmissions started since construction.
  std::uint64_t NumTransmissions() const { return next_tx_id_ - 1; }

  /// Transmission records currently kept: those on the air plus ended
  /// ones not yet collected (a record is collected once it ended more
  /// than 1 s ago, or when nothing is on the air).
  std::size_t RetainedRecords() const { return records_.size(); }

  /// Ids of registered radios flagged as APs, in registration order, then
  /// of every foreign AP whose ghost energy landed here, ascending.
  std::vector<int> ApIds() const;

  /// A tap invoked after every completed transmission, regardless of any
  /// receiver's tuning — this is how SIFT-style observers (scanners) see
  /// energy they cannot decode.  Taps must not call Transmit synchronously.
  using FrameTap =
      std::function<void(const Channel&, const Frame&, const RadioPort& tx)>;

  /// Registers a tap (never removed; keep captured objects alive).
  void AddFrameTap(FrameTap tap);

  /// Everything a shard boundary needs to re-emit a transmission remotely.
  /// References are valid only for the duration of the tap call.
  struct EnergyTapInfo {
    const Channel& channel;
    const Frame& frame;
    const RadioPort& tx;
    Dbm power;
    SimTime start;
    SimTime end;
  };

  /// A tap invoked after every completed LOCAL transmission with the full
  /// energy description (power, interval, transmitter position via `tx`).
  /// Ghost transmissions injected with InjectForeignEnergy never fire it,
  /// so a sharded federation cannot echo energy back and forth.  Like
  /// frame taps, energy taps must not call Transmit synchronously.
  using EnergyTap = std::function<void(const EnergyTapInfo&)>;

  /// Registers an energy tap (never removed).
  void AddEnergyTap(EnergyTap tap);

  /// Attaches metrics/trace/profiler sinks (any pointer may be null).
  /// Counter handles are resolved here, once, so the per-frame cost is a
  /// null check.  Called by World; must precede traffic.
  void SetObservability(const Observability& obs);

  /// Attaches the fault injector (may be null = no faults).  Consulted
  /// after the SINR decode check for every otherwise-deliverable frame.
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }

  const MediumParams& params() const { return params_; }
  const PropagationModel& propagation() const { return prop_; }

 private:
  struct ActiveTx {
    std::uint64_t id;
    RadioPort* tx;
    Channel channel;
    Frame frame;
    Dbm power;
    SimTime start;
    SimTime end;
    /// Transmissions that overlapped this one in time AND spectrum, in
    /// ascending id order.  Only receptions read it, so a foreign record
    /// keeps none; a local one lists every ghost it overlapped.
    std::vector<std::uint64_t> interferers;
    /// Cross-shard ghost energy: sensed and booked, never delivered.
    bool foreign = false;
  };

  /// Medium-side stand-in for a transmitter that lives in another shard,
  /// one per ghost record, at the position the ghost was emitted from: it
  /// radiates (ghost transmissions reference it for position/id) but
  /// never receives, so it has no Listener, no link slot and no channel
  /// of its own (ghost rings hold thousands, so it stays 40 bytes).
  struct ForeignSource final : RadioPort {
    static constexpr Channel kNoChannel{0, ChannelWidth::kW5};
    int id = 0;
    bool ap = false;
    Position pos;

    int NodeId() const override { return id; }
    Position Location() const override { return pos; }
    const Channel& TunedChannel() const override { return kNoChannel; }
    bool IsAp() const override { return ap; }
    void DeliverFrame(const Frame&, Dbm) override {}
    void MediumChanged() override {}
  };

  /// A registered radio as deliveries and carrier notifications see it.
  struct Listener {
    RadioPort* radio;
    Channel tuned;
    SimTime rx_enabled_at;  ///< Deaf before this time (PLL retune).
  };

  /// The link budget of one ordered pair of registered radios, filled
  /// lazily with PropagationModel's own expressions, so every double is
  /// the one the formulas give.  NaN marks what is not filled yet.
  struct LinkBudget {
    static constexpr double kUnfilled =
        std::numeric_limits<double>::quiet_NaN();
    /// PathLossDb over the distance from transmitter to receiver.
    double loss_db = kUnfilled;
    /// DbmToMilliwatt of the received power at tx power `mw_for`.
    double mw = 0.0;
    Dbm mw_for = kUnfilled;
  };

  void StartTransmission(RadioPort* tx, const Channel& channel,
                         const Frame& frame, Dbm tx_power, SimTime duration,
                         bool foreign, std::function<void()> on_end);
  void EndTransmission(std::uint64_t tx_id, std::function<void()> on_end);
  /// Pops collectable records off the front of the ring.
  void CollectRecords();
  void ResolveReceptions(const ActiveTx& tx);
  void NotifyOverlapping(const Channel& channel);
  /// Brings one UHF channel's busy book current (lazy accrual).
  void AccrueChannel(std::size_t c);
  /// In-band power (mW) of `tx`'s interferers at `rx`, which is tuned
  /// to `tx.channel`.
  double InterferencePowerMw(const ActiveTx& tx, const RadioPort& rx) const;
  const ActiveTx* FindTx(std::uint64_t id) const;

  /// Clears every cached link to and from `slot`.
  void DropLinks(int slot);
  /// The cached link from `from` to `to` with its path loss filled; null
  /// when either has no slot (a ghost's stand-in never has one).
  LinkBudget* Link(const RadioPort& from, const RadioPort& to) const;
  /// `tx`'s received power at `rx`, in dBm and in milliwatts.
  Dbm ReceivedDbm(const ActiveTx& tx, const RadioPort& rx) const;
  double ReceivedMw(const ActiveTx& tx, const RadioPort& rx) const;

  Simulator& sim_;
  MediumParams params_;
  PropagationModel prop_;
  /// Per-medium constants: the decode threshold as a linear SINR, the
  /// noise floor in mW by width, and the in-band share in dB of a
  /// transmission of width w that shares k UHF channels with a listener,
  /// at [w][k].
  double min_sinr_;
  std::array<double, kNumWidths> noise_mw_{};
  std::array<std::array<Dbm, SpanChannels(ChannelWidth::kW20) + 1>,
             kNumWidths>
      in_band_db_{};
  /// Registered radios in registration order, the order in which
  /// deliveries and carrier notifications go out.
  std::vector<Listener> listeners_;
  /// The link-budget cache: links_[to][from] is the link from the radio
  /// in slot `from` to the one in slot `to`.  A new slot adds a row and a
  /// column; a freed slot is reused, its links already dropped.
  mutable std::vector<std::vector<LinkBudget>> links_;
  std::vector<int> free_slots_;
  /// The half-duplex set of the reception being resolved, reused.
  std::vector<int> talked_during_;
  /// Ids of the foreign APs heard so far, ascending.
  std::vector<int> foreign_aps_;
  std::vector<FrameTap> taps_;
  std::vector<EnergyTap> energy_taps_;
  /// Every transmission record still referenceable, on the air or ended:
  /// record `id` sits at `records_[id - first_record_id_]`.  Ids are dense
  /// and monotone, so records enter at the back and are collected from
  /// the front; a deque never moves its elements, so the pointers in
  /// channel_txs_ stay valid while the ring grows.
  std::deque<ActiveTx> records_;
  /// The transmitters of the ghosts in `records_`, in id order: a ghost's
  /// `tx` points at its own, and records and sources leave together.
  std::deque<ForeignSource> ghost_sources_;
  std::uint64_t first_record_id_ = 1;
  std::uint64_t next_tx_id_ = 1;
  /// Records whose transmission has not ended yet.
  std::size_t on_air_ = 0;

  /// Per-UHF-channel index of active transmissions: a transmission spanning
  /// [Low, High] appears in every spanned channel's list.  Queries over a
  /// channel span visit each transmission exactly once by only processing
  /// it at the first spanned channel inside the query range.
  std::array<std::vector<ActiveTx*>, static_cast<std::size_t>(kNumUhfChannels)>
      channel_txs_;

  /// Bit c is set while channel_txs_[c] is non-empty.
  std::uint32_t busy_ = 0;
  static_assert(kNumUhfChannels <= 32);

  // Airtime accounting, one ChannelBooks per UHF channel.
  std::array<ChannelBooks, static_cast<std::size_t>(kNumUhfChannels)> books_;
  /// Per-channel lazy-accrual timestamp: books_[c].busy is current up to
  /// channel_accrued_at_[c].
  std::array<SimTime, static_cast<std::size_t>(kNumUhfChannels)>
      channel_accrued_at_{};

  // Observability (all optional).  Per-frame-type counter handles are
  // pre-resolved: whitefi.medium.{tx,rx,drop}.<Type>.
  Observability obs_;
  FaultInjector* faults_ = nullptr;
  /// Ghost transmissions injected (kept out of the per-type tx counters so
  /// aggregate medium stats never double-count a cross-shard frame).
  Counter* foreign_counter_ = nullptr;
  std::array<Counter*, kNumFrameTypes> tx_counters_{};
  std::array<Counter*, kNumFrameTypes> rx_counters_{};
  std::array<Counter*, kNumFrameTypes> drop_counters_{};
};

}  // namespace whitefi
