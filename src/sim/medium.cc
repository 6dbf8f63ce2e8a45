#include "sim/medium.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "sim/audit_hooks.h"

namespace whitefi {

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
    : sim_(sim), params_(params), prop_(params.propagation) {}

void Medium::Register(RadioPort* radio) { radios_.push_back(radio); }

void Medium::Unregister(RadioPort* radio) {
  radios_.erase(std::remove(radios_.begin(), radios_.end(), radio),
                radios_.end());
}

void Medium::AccrueChannel(std::size_t c) {
  const SimTime now = sim_.Now();
  if (now == channel_accrued_at_[c]) return;
  // `ToUs` is an exact int64 -> double conversion and busy is a sum of
  // integer-valued doubles, so accruing per channel in fewer, larger steps
  // is bit-equal to the eager all-channel walk it replaces.
  if (active_count_[c] > 0) books_[c].busy += ToUs(now - channel_accrued_at_[c]);
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
  auto& source = foreign_sources_[node_id];
  if (source == nullptr) source = std::make_unique<ForeignSource>();
  source->id = node_id;
  source->ap = is_ap;
  source->pos = position;
  StartTransmission(source.get(), channel, frame, tx_power, duration,
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
  if (!foreign && obs_.trace != nullptr) {
    if (obs_.trace->Wants(TraceEventKind::kFrameTx)) {
      TraceEvent event;
      event.at_us = sim_.Now();
      event.kind = TraceEventKind::kFrameTx;
      event.node = tx->NodeId();
      event.src = frame.src;
      event.dst = frame.dst;
      event.bytes = frame.bytes;
      event.frame_type = FrameTypeName(frame.type);
      event.detail = channel.ToString();
      obs_.trace->Append(std::move(event));
    } else {
      obs_.trace->CountSkipped(TraceEventKind::kFrameTx);
    }
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
    ++active_count_[c];
    books_[c].per_node[tx->NodeId()] += ToUs(duration);
    channel_txs_[c].push_back(&record);
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
    --active_count_[c];
    auto& list = channel_txs_[c];
    auto pos = std::find(list.begin(), list.end(), &tx);
    assert(pos != list.end());
    *pos = list.back();
    list.pop_back();
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
    return;
  }
  const SimTime horizon = sim_.Now() - kTicksPerSec;
  while (records_.front().end < horizon) {
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
    const Dbm p = prop_.ReceivedPower(interferer->power,
                                      interferer->tx->Location(),
                                      rx.Location());
    // Only the interferer's in-band power corrupts our symbols.
    const double fraction =
        InBandPowerFraction(interferer->channel, rx.TunedChannel());
    if (fraction <= 0.0) continue;
    total_mw += DbmToMilliwatt(p) * fraction;
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
  // with no matching listener skip the interferer walk entirely.
  std::vector<int> talked_during;
  bool talked_during_built = false;
  const auto BuildTalkedDuring = [&] {
    if (talked_during_built) return;
    talked_during_built = true;
    for (std::uint64_t interferer_id : tx.interferers) {
      if (const ActiveTx* interferer = FindTx(interferer_id)) {
        talked_during.push_back(interferer->tx->NodeId());
      }
    }
  };

  const double noise_mw =
      DbmToMilliwatt(NoiseFloorDbm(WidthMHz(tx.channel.width)));
  const double min_sinr = DbToLinear(params_.decode_snr_db);

  for (RadioPort* rx : radios_) {
    if (rx == tx.tx) continue;
    if (!rx->RxEnabled()) continue;
    // Exact (F, W) match required: packets at other widths or centers are
    // dropped (paper Section 5.4).
    if (!(rx->TunedChannel() == tx.channel)) continue;
    BuildTalkedDuring();
    if (std::find(talked_during.begin(), talked_during.end(), rx->NodeId()) !=
        talked_during.end()) {
      continue;
    }
    const Dbm rx_power =
        prop_.ReceivedPower(tx.power, tx.tx->Location(), rx->Location());
    const double signal_mw = DbmToMilliwatt(rx_power);
    const double interference_mw = InterferencePowerMw(tx, *rx);
    const auto type_index = static_cast<std::size_t>(tx.frame.type);
    if (signal_mw / (noise_mw + interference_mw) < min_sinr) {
      WHITEFI_METRIC_COUNT(drop_counters_[type_index], 1);
      if (obs_.trace != nullptr) {
        if (obs_.trace->Wants(TraceEventKind::kFrameDrop)) {
          TraceEvent event;
          event.at_us = sim_.Now();
          event.kind = TraceEventKind::kFrameDrop;
          event.node = rx->NodeId();
          event.src = tx.frame.src;
          event.dst = tx.frame.dst;
          event.bytes = tx.frame.bytes;
          event.frame_type = FrameTypeName(tx.frame.type);
          event.detail = "sinr";
          obs_.trace->Append(std::move(event));
        } else {
          obs_.trace->CountSkipped(TraceEventKind::kFrameDrop);
        }
      }
      continue;
    }
    // Fault injection: frames that survive physics can still be lost to
    // burst channels or targeted control-plane faults (see src/fault).
    if (faults_ != nullptr) {
      const char* reason =
          faults_->FrameFault(sim_.Now(), tx.frame.type, rx->NodeId());
      if (reason != nullptr) {
        WHITEFI_METRIC_COUNT(drop_counters_[type_index], 1);
        if (obs_.trace != nullptr) {
          if (obs_.trace->Wants(TraceEventKind::kFrameDrop)) {
            TraceEvent event;
            event.at_us = sim_.Now();
            event.kind = TraceEventKind::kFrameDrop;
            event.node = rx->NodeId();
            event.src = tx.frame.src;
            event.dst = tx.frame.dst;
            event.bytes = tx.frame.bytes;
            event.frame_type = FrameTypeName(tx.frame.type);
            event.detail = reason;
            obs_.trace->Append(std::move(event));
          } else {
            obs_.trace->CountSkipped(TraceEventKind::kFrameDrop);
          }
        }
        continue;
      }
    }
    WHITEFI_METRIC_COUNT(rx_counters_[type_index], 1);
    if (obs_.trace != nullptr) {
      if (obs_.trace->Wants(TraceEventKind::kFrameRx)) {
        TraceEvent event;
        event.at_us = sim_.Now();
        event.kind = TraceEventKind::kFrameRx;
        event.node = rx->NodeId();
        event.src = tx.frame.src;
        event.dst = tx.frame.dst;
        event.bytes = tx.frame.bytes;
        event.frame_type = FrameTypeName(tx.frame.type);
        obs_.trace->Append(std::move(event));
      } else {
        obs_.trace->CountSkipped(TraceEventKind::kFrameRx);
      }
    }
    rx->DeliverFrame(tx.frame, rx_power);
  }
}

void Medium::NotifyOverlapping(const Channel& channel) {
  for (RadioPort* radio : radios_) {
    if (!radio->RxEnabled()) continue;
    if (radio->TunedChannel().Overlaps(channel)) radio->MediumChanged();
  }
}

double InBandPowerFraction(const Channel& tx, const Channel& listener) {
  const UhfIndex lo = std::max(tx.Low(), listener.Low());
  const UhfIndex hi = std::min(tx.High(), listener.High());
  if (hi < lo) return 0.0;
  return static_cast<double>(hi - lo + 1) /
         static_cast<double>(SpanChannels(tx.width));
}

bool Medium::CarrierSensed(const RadioPort& radio,
                           const Channel& channel) const {
  // Only transmissions indexed on a spanned channel can overlap `channel`;
  // each is examined once (at the first spanned channel in range).
  const auto lo = static_cast<std::size_t>(channel.Low());
  const auto hi = static_cast<std::size_t>(channel.High());
  for (std::size_t c = lo; c <= hi; ++c) {
    for (const ActiveTx* tx : channel_txs_[c]) {
      if (std::max(static_cast<std::size_t>(tx->channel.Low()), lo) != c) {
        continue;  // Seen at an earlier c.
      }
      if (tx->tx == &radio) continue;
      const Dbm p =
          prop_.ReceivedPower(tx->power, tx->tx->Location(), radio.Location());
      if (tx->channel == channel) {
        if (p >= params_.same_channel_cs_dbm) return true;
      } else {
        const Dbm in_band =
            p + LinearToDb(InBandPowerFraction(tx->channel, channel));
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

AirtimeBooks Medium::SnapshotBooks() {
  for (std::size_t c = 0; c < static_cast<std::size_t>(kNumUhfChannels); ++c) {
    AccrueChannel(c);
  }
  return books_;
}

const ChannelBooks& Medium::ChannelBooksAt(UhfIndex c) {
  const auto index = static_cast<std::size_t>(c);
  AccrueChannel(index);
  return books_[index];
}

std::vector<int> Medium::ActiveApsBetween(const AirtimeBooks& before,
                                          const AirtimeBooks& after,
                                          UhfIndex c,
                                          const std::vector<int>& ap_ids) {
  return ActiveApsBetween(before[static_cast<std::size_t>(c)],
                          after[static_cast<std::size_t>(c)], ap_ids);
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
  for (const RadioPort* radio : radios_) {
    if (radio->IsAp()) ids.push_back(radio->NodeId());
  }
  // Cross-shard APs whose ghost energy lands here count as interfering
  // APs too: a scanner's B_c must see a foreign AP across a shard seam
  // exactly as it would in a flat world.
  for (const auto& [id, source] : foreign_sources_) {
    if (source->ap) ids.push_back(id);
  }
  return ids;
}

}  // namespace whitefi
