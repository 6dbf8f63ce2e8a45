#include "sim/medium.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "sim/audit_hooks.h"

namespace whitefi {

namespace {

/// Number of UHF channels spanned by both `a` and `b` (0 when disjoint).
int SharedChannels(const Channel& a, const Channel& b) {
  return std::max(0, std::min(a.High(), b.High()) -
                         std::max(a.Low(), b.Low()) + 1);
}

/// busy_'s bits for the UHF channels lo..hi.
std::uint32_t SpanMask(std::size_t lo, std::size_t hi) {
  return ((std::uint32_t{2} << (hi - lo)) - 1) << lo;
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kData: return "Data";
    case FrameType::kAck: return "Ack";
    case FrameType::kBeacon: return "Beacon";
    case FrameType::kCts: return "Cts";
    case FrameType::kChirp: return "Chirp";
    case FrameType::kChannelSwitch: return "ChannelSwitch";
    case FrameType::kReport: return "Report";
  }
  return "?";
}

TraceEvent FrameEvent(SimTime at, TraceEventKind kind, int node,
                      const Frame& frame, std::string detail) {
  TraceEvent event;
  event.at_us = at;
  event.kind = kind;
  event.node = node;
  event.src = frame.src;
  event.dst = frame.dst;
  event.bytes = frame.bytes;
  event.frame_type = FrameTypeName(frame.type);
  event.detail = std::move(detail);
  return event;
}

std::string Frame::ToString() const {
  std::ostringstream os;
  os << FrameTypeName(type) << "(" << src << "->";
  if (IsBroadcast()) {
    os << "*";
  } else {
    os << dst;
  }
  os << ", " << bytes << "B)";
  return os.str();
}

Medium::Medium(Simulator& sim, const MediumParams& params)
    : sim_(sim),
      params_(params),
      prop_(params.propagation),
      min_sinr_(DbToLinear(params.decode_snr_db)) {
  for (const ChannelWidth w : kAllWidths) {
    const auto wi = static_cast<std::size_t>(w);
    noise_mw_[wi] = DbmToMilliwatt(NoiseFloorDbm(WidthMHz(w)));
    const int span = SpanChannels(w);
    for (int k = 1; k <= span; ++k) {
      // InBandPowerFraction's quotient for k shared channels.
      in_band_db_[wi][static_cast<std::size_t>(k)] = LinearToDb(
          static_cast<double>(k) / static_cast<double>(span));
    }
  }
}

void Medium::Register(RadioPort* radio) {
  assert(radio->link_slot_ < 0);  // One medium at a time.
  int slot;
  if (free_slots_.empty()) {
    slot = static_cast<int>(links_.size());
    for (std::vector<LinkBudget>& row : links_) row.emplace_back();
    links_.emplace_back(links_.size() + 1);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  radio->link_slot_ = slot;
  listeners_.push_back(Listener{radio, radio->TunedChannel(), 0});
}

void Medium::Unregister(RadioPort* radio) {
  if (std::erase_if(listeners_, [radio](const Listener& l) {
        return l.radio == radio;
      }) == 0) {
    return;  // Not registered here.
  }
  DropLinks(radio->link_slot_);
  free_slots_.push_back(radio->link_slot_);
  radio->link_slot_ = -1;
}

void Medium::Moved(const RadioPort& radio) {
  if (radio.link_slot_ >= 0) DropLinks(radio.link_slot_);
}

void Medium::DropLinks(int slot) {
  const auto s = static_cast<std::size_t>(slot);
  std::fill(links_[s].begin(), links_[s].end(), LinkBudget{});
  for (std::vector<LinkBudget>& row : links_) row[s] = LinkBudget{};
}

Medium::LinkBudget* Medium::Link(const RadioPort& from,
                                 const RadioPort& to) const {
  if (from.link_slot_ < 0 || to.link_slot_ < 0) return nullptr;
  LinkBudget& link = links_[static_cast<std::size_t>(to.link_slot_)]
                           [static_cast<std::size_t>(from.link_slot_)];
  if (std::isnan(link.loss_db)) {
    link.loss_db = prop_.PathLossDb(Distance(from.Location(), to.Location()));
  }
  return &link;
}

Dbm Medium::ReceivedDbm(const ActiveTx& tx, const RadioPort& rx) const {
  // PropagationModel::ReceivedPower is tx power less PathLossDb.
  if (const LinkBudget* link = Link(*tx.tx, rx)) {
    return tx.power - link->loss_db;
  }
  return prop_.ReceivedPower(tx.power, tx.tx->Location(), rx.Location());
}

double Medium::ReceivedMw(const ActiveTx& tx, const RadioPort& rx) const {
  LinkBudget* link = Link(*tx.tx, rx);
  if (link == nullptr) return DbmToMilliwatt(ReceivedDbm(tx, rx));
  if (link->mw_for != tx.power) {
    link->mw = DbmToMilliwatt(tx.power - link->loss_db);
    link->mw_for = tx.power;
  }
  return link->mw;
}

void Medium::Retune(const RadioPort* radio, const Channel& channel,
                    SimTime rx_enabled_at) {
  for (Listener& l : listeners_) {
    if (l.radio != radio) continue;
    l.tuned = channel;
    l.rx_enabled_at = rx_enabled_at;
    return;
  }
}

void Medium::AccrueChannel(std::size_t c) {
  const SimTime now = sim_.Now();
  if (now == channel_accrued_at_[c]) return;
  // `ToUs` is an exact int64 -> double conversion and busy is a sum of
  // integer-valued doubles, so accruing per channel in fewer, larger steps
  // is bit-equal to the eager all-channel walk it replaces.
  if ((busy_ >> c & 1) != 0) {
    books_[c].busy += ToUs(now - channel_accrued_at_[c]);
  }
  channel_accrued_at_[c] = now;
}

void Medium::Transmit(RadioPort* tx, const Channel& channel,
                      const Frame& frame, Dbm tx_power, SimTime duration,
                      std::function<void()> on_end) {
  StartTransmission(tx, channel, frame, tx_power, duration, /*foreign=*/false,
                    std::move(on_end));
}

void Medium::InjectForeignEnergy(int node_id, bool is_ap,
                                 const Position& position,
                                 const Channel& channel, const Frame& frame,
                                 Dbm tx_power, SimTime duration) {
  if (is_ap) {
    const auto at =
        std::lower_bound(foreign_aps_.begin(), foreign_aps_.end(), node_id);
    if (at == foreign_aps_.end() || *at != node_id) {
      foreign_aps_.insert(at, node_id);
    }
  }
  ForeignSource& source = ghost_sources_.emplace_back();
  source.id = node_id;
  source.ap = is_ap;
  source.pos = position;
  StartTransmission(&source, channel, frame, tx_power, duration,
                    /*foreign=*/true, {});
}

void Medium::StartTransmission(RadioPort* tx, const Channel& channel,
                               const Frame& frame, Dbm tx_power,
                               SimTime duration, bool foreign,
                               std::function<void()> on_end) {
  const std::uint64_t id = next_tx_id_++;
  const auto type_index = static_cast<std::size_t>(frame.type);
  if (foreign) {
    WHITEFI_METRIC_COUNT(foreign_counter_, 1);
  } else {
    WHITEFI_METRIC_COUNT(tx_counters_[type_index], 1);
  }
  if (!foreign) {
    TraceFrame(obs_.trace, sim_.Now(), TraceEventKind::kFrameTx, tx->NodeId(),
               frame, [&] { return channel.ToString(); });
  }
  ActiveTx& record = records_.emplace_back(
      ActiveTx{id, tx, channel, frame, tx_power, sim_.Now(),
               sim_.Now() + duration, {}, foreign});
  ++on_air_;
  // Record mutual interference with every time-overlapping transmission on
  // overlapping spectrum: only transmissions indexed on the channels this
  // frame spans can overlap it.  Each is visited once (at the first spanned
  // channel inside our range); the collected ids are sorted so the
  // interference sums accumulate in the same ascending-id order as the
  // full-scan implementation this replaces.  Only local receptions read
  // the lists, so ghosts keep none (but appear in every local list).
  const auto lo = static_cast<std::size_t>(channel.Low());
  const auto hi = static_cast<std::size_t>(channel.High());
  for (std::size_t c = lo; c <= hi; ++c) {
    for (ActiveTx* other : channel_txs_[c]) {
      const auto other_lo = static_cast<std::size_t>(other->channel.Low());
      if (std::max(other_lo, lo) != c) continue;  // Seen at an earlier c.
      if (!other->foreign) other->interferers.push_back(id);
      if (!foreign) record.interferers.push_back(other->id);
    }
  }
  std::sort(record.interferers.begin(), record.interferers.end());
  for (std::size_t c = lo; c <= hi; ++c) {
    AccrueChannel(c);
    books_[c].per_node[tx->NodeId()] += ToUs(duration);
    channel_txs_[c].push_back(&record);
    busy_ |= std::uint32_t{1} << c;
  }
  // Audit seam: the transmission is committed (indexed + booked) from this
  // instant; the auditor sees exactly what the airtime books will accrue.
  if (obs_.auditor != nullptr) {
    obs_.auditor->OnTransmitStart(sim_.Now(), *tx, channel, duration);
  }
  sim_.Schedule(sim_.Now() + duration,
                [this, id, cb = std::move(on_end)]() mutable {
                  EndTransmission(id, std::move(cb));
                });
  NotifyOverlapping(channel);
}

void Medium::EndTransmission(std::uint64_t tx_id,
                             std::function<void()> on_end) {
  // A record on the air is never collected, so the index is in range.
  assert(tx_id >= first_record_id_);
  ActiveTx& tx = records_[tx_id - first_record_id_];
  for (auto c = static_cast<std::size_t>(tx.channel.Low());
       c <= static_cast<std::size_t>(tx.channel.High()); ++c) {
    AccrueChannel(c);
    auto& list = channel_txs_[c];
    auto pos = std::find(list.begin(), list.end(), &tx);
    assert(pos != list.end());
    *pos = list.back();
    list.pop_back();
    if (list.empty()) busy_ &= ~(std::uint32_t{1} << c);
  }
  --on_air_;
  ResolveReceptions(tx);
  // `tx` stays put while the callbacks below start new transmissions: the
  // ring only grows at the back, which moves no element.
  if (on_end) on_end();
  NotifyOverlapping(tx.channel);
  for (const FrameTap& tap : taps_) tap(tx.channel, tx.frame, *tx.tx);
  if (!tx.foreign) {
    const EnergyTapInfo info{tx.channel, tx.frame, *tx.tx,
                             tx.power,   tx.start, tx.end};
    for (const EnergyTap& tap : energy_taps_) tap(info);
  }
  CollectRecords();
}

void Medium::CollectRecords() {
  // Only a reception reads an ended record, as an interferer of a
  // transmission it overlapped in time.  When nothing is on the air every
  // record is dead; otherwise a record that ended more than a second ago
  // is, since no frame lasts anywhere near a second.  Records leave in id
  // (start) order, so one on the air shields the ended ones behind it —
  // one comparison when nothing is old enough.  A record on the air ends
  // at or after now, so the loop stops at it at the latest.
  if (on_air_ == 0) {
    first_record_id_ += records_.size();
    records_.clear();
    ghost_sources_.clear();
    return;
  }
  const SimTime horizon = sim_.Now() - kTicksPerSec;
  while (records_.front().end < horizon) {
    if (records_.front().foreign) ghost_sources_.pop_front();
    records_.pop_front();
    ++first_record_id_;
  }
}

void Medium::AddFrameTap(FrameTap tap) { taps_.push_back(std::move(tap)); }

void Medium::AddEnergyTap(EnergyTap tap) {
  energy_taps_.push_back(std::move(tap));
}

void Medium::SetObservability(const Observability& obs) {
  obs_ = obs;
  if (obs_.metrics == nullptr) {
    foreign_counter_ = nullptr;
    tx_counters_.fill(nullptr);
    rx_counters_.fill(nullptr);
    drop_counters_.fill(nullptr);
    return;
  }
  foreign_counter_ =
      &obs_.metrics->GetCounter("whitefi.medium.foreign_energy");
  for (int i = 0; i < kNumFrameTypes; ++i) {
    const std::string type = FrameTypeName(static_cast<FrameType>(i));
    tx_counters_[i] = &obs_.metrics->GetCounter("whitefi.medium.tx." + type);
    rx_counters_[i] = &obs_.metrics->GetCounter("whitefi.medium.rx." + type);
    drop_counters_[i] =
        &obs_.metrics->GetCounter("whitefi.medium.drop." + type);
  }
}

const Medium::ActiveTx* Medium::FindTx(std::uint64_t id) const {
  if (id < first_record_id_) return nullptr;  // Collected.
  return &records_[id - first_record_id_];
}

double Medium::InterferencePowerMw(const ActiveTx& tx,
                                   const RadioPort& rx) const {
  double total_mw = 0.0;
  for (std::uint64_t interferer_id : tx.interferers) {
    const ActiveTx* interferer = FindTx(interferer_id);
    if (interferer == nullptr) continue;
    // Only the interferer's in-band power corrupts our symbols.
    const double fraction =
        InBandPowerFraction(interferer->channel, tx.channel);
    if (fraction <= 0.0) continue;
    total_mw += ReceivedMw(*interferer, rx) * fraction;
  }
  return total_mw;
}

void Medium::ResolveReceptions(const ActiveTx& tx) {
  // Ghost energy is sensed, booked, and tapped but never decodable here:
  // its frames are delivered (or dropped) in the shard that owns the
  // transmitter.  Skipping before the radio walk keeps rx/drop counters
  // clean of cross-shard duplicates.
  if (tx.foreign) return;
  ScopedPhaseTimer timer(obs_.profiler, "medium.deliver");
  // Half-duplex: a radio that transmitted during this frame cannot have
  // received it.  Any such transmission on the same channel is recorded in
  // the interferer list, so collect those node ids — lazily, on the first
  // radio that is actually tuned to receive this frame, so dense storms
  // with no matching listener skip the interferer walk entirely.  The
  // buffer is the medium's: a delivery never transmits, so this is never
  // re-entered.
  bool talked_during_built = false;
  const auto BuildTalkedDuring = [&] {
    if (talked_during_built) return;
    talked_during_built = true;
    talked_during_.clear();
    for (std::uint64_t interferer_id : tx.interferers) {
      if (const ActiveTx* interferer = FindTx(interferer_id)) {
        talked_during_.push_back(interferer->tx->NodeId());
      }
    }
  };

  const double noise_mw = noise_mw_[static_cast<std::size_t>(tx.channel.width)];

  const SimTime now = sim_.Now();
  // By index, reading each entry afresh: a delivery may retune a radio,
  // and Retune edits the table in place.
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    const Listener& listener = listeners_[i];
    if (listener.radio == tx.tx) continue;
    if (now < listener.rx_enabled_at) continue;
    // Exact (F, W) match required: packets at other widths or centers are
    // dropped (paper Section 5.4).
    if (!(listener.tuned == tx.channel)) continue;
    RadioPort* const rx = listener.radio;
    BuildTalkedDuring();
    if (std::find(talked_during_.begin(), talked_during_.end(),
                  rx->NodeId()) != talked_during_.end()) {
      continue;
    }
    const Dbm rx_power = ReceivedDbm(tx, *rx);
    const double signal_mw = ReceivedMw(tx, *rx);
    const double interference_mw = InterferencePowerMw(tx, *rx);
    const auto type_index = static_cast<std::size_t>(tx.frame.type);
    if (signal_mw / (noise_mw + interference_mw) < min_sinr_) {
      WHITEFI_METRIC_COUNT(drop_counters_[type_index], 1);
      TraceFrame(obs_.trace, sim_.Now(), TraceEventKind::kFrameDrop,
                 rx->NodeId(), tx.frame, [] { return "sinr"; });
      continue;
    }
    // Fault injection: frames that survive physics can still be lost to
    // burst channels or targeted control-plane faults (see src/fault).
    if (faults_ != nullptr) {
      const char* reason =
          faults_->FrameFault(sim_.Now(), tx.frame.type, rx->NodeId());
      if (reason != nullptr) {
        WHITEFI_METRIC_COUNT(drop_counters_[type_index], 1);
        TraceFrame(obs_.trace, sim_.Now(), TraceEventKind::kFrameDrop,
                   rx->NodeId(), tx.frame, [reason] { return reason; });
        continue;
      }
    }
    WHITEFI_METRIC_COUNT(rx_counters_[type_index], 1);
    TraceFrame(obs_.trace, sim_.Now(), TraceEventKind::kFrameRx, rx->NodeId(),
               tx.frame, [] { return ""; });
    rx->DeliverFrame(tx.frame, rx_power);
  }
}

void Medium::NotifyOverlapping(const Channel& channel) {
  const SimTime now = sim_.Now();
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    const Listener& listener = listeners_[i];
    if (now >= listener.rx_enabled_at && listener.tuned.Overlaps(channel)) {
      listener.radio->MediumChanged();
    }
  }
}

double InBandPowerFraction(const Channel& tx, const Channel& listener) {
  return static_cast<double>(SharedChannels(tx, listener)) /
         static_cast<double>(SpanChannels(tx.width));
}

bool Medium::CarrierSensed(const RadioPort& radio,
                           const Channel& channel) const {
  // Only transmissions indexed on a spanned channel can overlap `channel`;
  // each is examined once (at the first spanned channel in range).
  const auto lo = static_cast<std::size_t>(channel.Low());
  const auto hi = static_cast<std::size_t>(channel.High());
  if ((busy_ & SpanMask(lo, hi)) == 0) return false;  // Nothing on the air.
  for (std::size_t c = lo; c <= hi; ++c) {
    for (const ActiveTx* tx : channel_txs_[c]) {
      if (std::max(static_cast<std::size_t>(tx->channel.Low()), lo) != c) {
        continue;  // Seen at an earlier c.
      }
      if (tx->tx == &radio) continue;
      const Dbm p = ReceivedDbm(*tx, radio);
      if (tx->channel == channel) {
        if (p >= params_.same_channel_cs_dbm) return true;
      } else {
        // LinearToDb(InBandPowerFraction(tx->channel, channel)).
        const Dbm in_band =
            p + in_band_db_[static_cast<std::size_t>(tx->channel.width)]
                           [static_cast<std::size_t>(
                               SharedChannels(tx->channel, channel))];
        if (in_band >= params_.energy_detect_cs_dbm) return true;
      }
    }
  }
  return false;
}

bool Medium::Transmitting(const RadioPort& radio) const {
  for (const auto& list : channel_txs_) {
    for (const ActiveTx* tx : list) {
      if (tx->tx == &radio) return true;
    }
  }
  return false;
}

const ChannelBooks& Medium::ChannelBooksAt(UhfIndex c) {
  const auto index = static_cast<std::size_t>(c);
  AccrueChannel(index);
  return books_[index];
}

std::vector<int> Medium::ActiveApsBetween(const ChannelBooks& before,
                                          const ChannelBooks& after,
                                          const std::vector<int>& ap_ids) {
  std::vector<int> active;
  const auto& b = before.per_node;
  const auto& a = after.per_node;
  for (int id : ap_ids) {
    const auto bt = b.find(id);
    const auto at = a.find(id);
    const Us before_time = bt == b.end() ? 0.0 : bt->second;
    const Us after_time = at == a.end() ? 0.0 : at->second;
    if (after_time > before_time) active.push_back(id);
  }
  return active;
}

std::vector<int> Medium::ApIds() const {
  std::vector<int> ids;
  for (const Listener& listener : listeners_) {
    if (listener.radio->IsAp()) ids.push_back(listener.radio->NodeId());
  }
  // Cross-shard APs whose ghost energy lands here count as interfering
  // APs too: a scanner's B_c must see a foreign AP across a shard seam
  // exactly as it would in a flat world.
  ids.insert(ids.end(), foreign_aps_.begin(), foreign_aps_.end());
  return ids;
}

}  // namespace whitefi
