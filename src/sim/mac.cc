#include "sim/mac.h"

#include <algorithm>
#include <stdexcept>

#include "sim/audit_hooks.h"
#include "util/log.h"

namespace whitefi {

void ValidateMacParams(const MacParams& params) {
  if (params.cw_min < 1) {
    throw std::invalid_argument("mac cw_min must be at least 1");
  }
  if (params.cw_max < params.cw_min) {
    throw std::invalid_argument("mac cw_max must be >= cw_min");
  }
  if (params.retry_limit < 1) {
    throw std::invalid_argument("mac retry_limit must be at least 1");
  }
  if (params.max_queue < 1) {
    throw std::invalid_argument("mac max_queue must be at least 1");
  }
}

Mac::Mac(Simulator& sim, Medium& medium, RadioPort& radio,
         MacCallbacks& callbacks, Dbm tx_power, const MacParams& params,
         Rng rng)
    : sim_(sim),
      medium_(medium),
      radio_(radio),
      callbacks_(callbacks),
      tx_power_(tx_power),
      params_(params),
      rng_(std::move(rng)),
      cw_(params.cw_min) {
  ValidateMacParams(params_);
}

void Mac::SetTiming(const PhyTiming& timing) {
  timing_ = timing;
  // Audit seam: every timing reprogram is checked against the width the
  // radio is tuned to (the device retunes, then reprograms us).
  if (auditor_ != nullptr) auditor_->OnMacTiming(radio_, timing);
}

void Mac::SetObservability(const Observability& obs) {
  trace_ = obs.trace;
  auditor_ = obs.auditor;
  if (obs.metrics == nullptr) {
    retries_counter_ = nullptr;
    drop_counters_.fill(nullptr);
    return;
  }
  retries_counter_ = &obs.metrics->GetCounter("whitefi.mac.retries");
  for (int i = 0; i < kNumFrameTypes; ++i) {
    drop_counters_[i] = &obs.metrics->GetCounter(
        std::string("whitefi.mac.drop.") +
        FrameTypeName(static_cast<FrameType>(i)));
  }
}

bool Mac::Enqueue(Frame frame) {
  if (queue_.size() >= params_.max_queue) return false;
  frame.src = radio_.NodeId();
  frame.seq = next_seq_++;
  queue_.push_back(std::move(frame));
  KickIfIdle();
  return true;
}

bool Mac::EnqueueFront(Frame frame) {
  if (queue_.size() >= params_.max_queue) return false;
  frame.src = radio_.NodeId();
  frame.seq = next_seq_++;
  // Never displace the head while it is in service (in flight or awaiting
  // its ACK); slot in right behind it.
  const bool head_in_service =
      !queue_.empty() &&
      (state_ == State::kTransmitting || state_ == State::kWaitAck);
  queue_.insert(queue_.begin() + (head_in_service ? 1 : 0), std::move(frame));
  KickIfIdle();
  return true;
}

std::size_t Mac::CountQueued(FrameType type) const {
  std::size_t count = 0;
  for (const Frame& f : queue_) count += f.type == type ? 1 : 0;
  return count;
}

void Mac::KickIfIdle() {
  if (state_ != State::kIdle) return;
  // Defer through the simulator: Enqueue may be called from a medium
  // callback, and contention entry probes the medium.
  const std::uint64_t epoch = epoch_;
  sim_.ScheduleAfter(0, [this, epoch] {
    if (epoch == epoch_ && state_ == State::kIdle) TryStart();
  });
}

void Mac::Reset() {
  ++epoch_;
  CancelTimer();
  queue_.clear();
  state_ = State::kIdle;
  attempts_ = 0;
  cw_ = params_.cw_min;
  backoff_slots_ = -1;
}

bool Mac::Carrier() const {
  return medium_.CarrierSensed(radio_, radio_.TunedChannel());
}

void Mac::CancelTimer() {
  sim_.Cancel(timer_);
  timer_ = kInvalidEventId;
}

void Mac::TryStart() {
  if (queue_.empty() || state_ != State::kIdle) return;
  EnterContention();
}

void Mac::EnterContention() {
  if (queue_.empty()) {
    state_ = State::kIdle;
    return;
  }
  if (Carrier()) {
    state_ = State::kWaitIdle;
    return;  // Resumed by OnMediumChanged.
  }
  state_ = State::kDifs;
  const std::uint64_t epoch = epoch_;
  timer_ = sim_.ScheduleAfter(ToTicks(timing_.ContentionDifs()), [this, epoch] {
    if (epoch != epoch_) return;
    timer_ = kInvalidEventId;
    DifsExpired();
  });
}

void Mac::DifsExpired() {
  if (state_ != State::kDifs) return;
  if (Carrier()) {  // Busy slipped in right at expiry.
    state_ = State::kWaitIdle;
    return;
  }
  if (backoff_slots_ < 0) {
    backoff_slots_ = rng_.UniformInt(0, cw_);
    if (trace_ != nullptr && !queue_.empty()) {
      if (trace_->Wants(TraceEventKind::kMacBackoff)) {
        TraceEvent event;
        event.at_us = sim_.Now();
        event.kind = TraceEventKind::kMacBackoff;
        event.node = radio_.NodeId();
        event.bytes = backoff_slots_;  // Magnitude: slots drawn.
        event.frame_type = FrameTypeName(queue_.front().type);
        event.detail = "cw=" + std::to_string(cw_);
        trace_->Append(std::move(event));
      } else {
        trace_->CountSkipped(TraceEventKind::kMacBackoff);
      }
    }
  }
  state_ = State::kBackoff;
  if (backoff_slots_ == 0) {
    TransmitHead();
    return;
  }
  const std::uint64_t epoch = epoch_;
  timer_ = sim_.ScheduleAfter(ToTicks(timing_.ContentionSlot()), [this, epoch] {
    if (epoch != epoch_) return;
    timer_ = kInvalidEventId;
    SlotExpired();
  });
}

void Mac::SlotExpired() {
  if (state_ != State::kBackoff) return;
  if (Carrier()) {
    // Freeze the counter; wait for idle then DIFS again.
    state_ = State::kWaitIdle;
    return;
  }
  --backoff_slots_;
  if (backoff_slots_ <= 0) {
    backoff_slots_ = -1;
    TransmitHead();
    return;
  }
  const std::uint64_t epoch = epoch_;
  timer_ = sim_.ScheduleAfter(ToTicks(timing_.ContentionSlot()), [this, epoch] {
    if (epoch != epoch_) return;
    timer_ = kInvalidEventId;
    SlotExpired();
  });
}

void Mac::TransmitHead() {
  if (queue_.empty()) {
    state_ = State::kIdle;
    return;
  }
  state_ = State::kTransmitting;
  backoff_slots_ = -1;
  const Frame& frame = queue_.front();
  const SimTime duration = ToTicks(timing_.FrameDuration(frame.bytes));
  const std::uint64_t epoch = epoch_;
  medium_.Transmit(&radio_, radio_.TunedChannel(), frame, tx_power_, duration,
                   [this, epoch] { TxDone(epoch); });
}

void Mac::TxDone(std::uint64_t epoch) {
  if (epoch != epoch_) return;
  if (state_ != State::kTransmitting || queue_.empty()) return;
  const Frame& frame = queue_.front();
  if (frame.IsBroadcast()) {
    if (frame.type == FrameType::kBeacon) {
      // The paper requires APs to send a CTS-to-self one SIFS after every
      // beacon so SIFT observers can recognize the beacon pattern without
      // decoding it (Section 4.2.1).
      Frame cts;
      cts.type = FrameType::kCts;
      cts.src = radio_.NodeId();
      cts.dst = radio_.NodeId();  // To self: never ACKed, never delivered.
      cts.bytes = kCtsBytes;
      const SimTime cts_duration = ToTicks(timing_.CtsDuration());
      sim_.ScheduleAfter(ToTicks(timing_.Sifs()),
                         [this, epoch, cts, cts_duration] {
                           if (epoch != epoch_) return;
                           medium_.Transmit(&radio_, radio_.TunedChannel(),
                                            cts, tx_power_, cts_duration,
                                            nullptr);
                         });
    }
    CompleteHead(true);
    return;
  }
  // Unicast: await the ACK.
  state_ = State::kWaitAck;
  const SimTime timeout = ToTicks(timing_.Sifs() + timing_.AckDuration() +
                                  3.0 * timing_.ContentionSlot());
  timer_ = sim_.ScheduleAfter(timeout, [this, epoch] {
    if (epoch != epoch_) return;
    timer_ = kInvalidEventId;
    AckTimeout(epoch);
  });
}

void Mac::AckTimeout(std::uint64_t epoch) {
  if (epoch != epoch_ || state_ != State::kWaitAck) return;
  ++attempts_;
  if (attempts_ > params_.retry_limit) {
    ++drops_;
    const Frame& frame = queue_.front();
    WHITEFI_METRIC_COUNT(
        drop_counters_[static_cast<std::size_t>(frame.type)], 1);
    TraceFrame(trace_, sim_.Now(), TraceEventKind::kFrameDrop,
               radio_.NodeId(), frame, [] { return "retry_limit"; });
    CompleteHead(false);
    return;
  }
  WHITEFI_METRIC_COUNT(retries_counter_, 1);
  TraceFrame(trace_, sim_.Now(), TraceEventKind::kMacRetry, radio_.NodeId(),
             queue_.front(),
             [this] { return "attempt=" + std::to_string(attempts_); });
  cw_ = std::min(cw_ * 2 + 1, params_.cw_max);
  state_ = State::kIdle;
  TryStart();
}

void Mac::CompleteHead(bool success) {
  Frame done = std::move(queue_.front());
  queue_.pop_front();
  attempts_ = 0;
  cw_ = params_.cw_min;
  backoff_slots_ = -1;
  state_ = State::kIdle;
  callbacks_.MacSendComplete(done, success);
  TryStart();
}

void Mac::OnDeliver(const Frame& frame, Dbm rx_power) {
  const int me = radio_.NodeId();
  if (frame.type == FrameType::kAck) {
    if (frame.dst == me && state_ == State::kWaitAck && !queue_.empty() &&
        frame.seq == queue_.front().seq) {
      CancelTimer();
      CompleteHead(true);
    }
    return;
  }

  if (frame.dst == me) {
    // Schedule the ACK one SIFS after the frame end (never synchronously:
    // we are inside a medium callback).
    Frame ack;
    ack.type = FrameType::kAck;
    ack.src = me;
    ack.dst = frame.src;
    ack.bytes = kAckBytes;
    ack.seq = frame.seq;  // Echo so the sender can match it.
    const SimTime ack_duration = ToTicks(timing_.AckDuration());
    const std::uint64_t epoch = epoch_;
    sim_.ScheduleAfter(ToTicks(timing_.Sifs()), [this, epoch, ack,
                                                 ack_duration] {
      if (epoch != epoch_) return;  // Radio retuned meanwhile.
      // SIFS access beats everyone; no carrier sense for ACKs.
      medium_.Transmit(&radio_, radio_.TunedChannel(), ack, tx_power_,
                       ack_duration, nullptr);
    });
    // Duplicate filter: retransmissions are ACKed but not re-delivered.
    auto [it, inserted] = last_seq_from_.try_emplace(frame.src, frame.seq);
    if (!inserted) {
      if (frame.seq <= it->second) return;
      it->second = frame.seq;
    }
    callbacks_.MacReceived(frame, rx_power);
    return;
  }

  if (frame.IsBroadcast()) {
    callbacks_.MacReceived(frame, rx_power);
  }
}

void Mac::OnMediumChanged() {
  if (state_ == State::kWaitIdle && !Carrier()) {
    state_ = State::kIdle;
    EnterContention();
  } else if (state_ == State::kDifs && Carrier()) {
    CancelTimer();
    state_ = State::kWaitIdle;
  } else if (state_ == State::kBackoff && Carrier()) {
    CancelTimer();
    state_ = State::kWaitIdle;  // Counter stays frozen in backoff_slots_.
  }
}

}  // namespace whitefi
