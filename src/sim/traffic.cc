#include "sim/traffic.h"

#include "sim/world.h"

namespace whitefi {

namespace {

Frame MakeDataFrame(int dst, int payload_bytes) {
  Frame frame;
  frame.type = FrameType::kData;
  frame.dst = dst;
  frame.bytes = payload_bytes + kMacOverheadBytes;
  return frame;
}

}  // namespace

CbrSource::CbrSource(Device& device, int dst, int payload_bytes,
                     SimTime interval)
    : device_(device),
      dst_(dst),
      payload_bytes_(payload_bytes),
      interval_(interval) {}

void CbrSource::Start() {
  if (started_) return;
  started_ = true;
  active_ = true;
  timer_ = device_.world().sim().ScheduleAfter(interval_, [this] { Tick(); });
}

void CbrSource::SetActive(bool active) {
  if (active == active_) return;
  active_ = active;
  if (!started_) return;
  if (active_) {
    timer_ = device_.world().sim().ScheduleAfter(interval_, [this] { Tick(); });
  } else {
    device_.world().sim().Cancel(timer_);
    timer_ = kInvalidEventId;
  }
}

void CbrSource::Tick() {
  if (!active_) return;
  device_.mac().Enqueue(MakeDataFrame(dst_, payload_bytes_));
  ++generated_;
  timer_ = device_.world().sim().ScheduleAfter(interval_, [this] { Tick(); });
}

SaturatedSource::SaturatedSource(Device& device, std::vector<int> dsts,
                                 int payload_bytes)
    : device_(device), dsts_(std::move(dsts)), payload_bytes_(payload_bytes) {}

void SaturatedSource::Start() {
  if (started_ || dsts_.empty()) return;
  started_ = true;
  device_.AddSendCompleteHook([this](const Frame&, bool) { Refill(); });
  Refill();
  Watchdog();
}

void SaturatedSource::Refill() {
  if (dsts_.empty()) return;
  // Keep two frames queued: one in flight, one ready, so the MAC never
  // idles for lack of data.
  while (device_.mac().QueueDepth() < 2) {
    const int dst = dsts_[next_dst_ % dsts_.size()];
    if (!device_.mac().Enqueue(MakeDataFrame(dst, payload_bytes_))) break;
    ++next_dst_;
    ++generated_;
  }
}

void SaturatedSource::Watchdog() {
  // Channel switches clear the MAC queue; with no completions pending the
  // send-complete hook would never fire again, so re-prime periodically.
  Refill();
  device_.world().sim().ScheduleAfter(100 * kTicksPerMs,
                                      [this] { Watchdog(); });
}

MarkovOnOffSource::MarkovOnOffSource(Device& device, int dst,
                                     int payload_bytes, SimTime interval,
                                     const Params& params)
    : cbr_(device, dst, payload_bytes, interval),
      params_(params),
      sim_(device.world().sim()),
      rng_(device.world().NewRng()) {}

void MarkovOnOffSource::Start() {
  cbr_.Start();
  EnterState(rng_.Bernoulli(params_.initial_active_probability));
}

double MarkovOnOffSource::StationaryActive() const {
  const double a = static_cast<double>(params_.mean_active);
  const double p = static_cast<double>(params_.mean_passive);
  return a / (a + p);
}

void MarkovOnOffSource::EnterState(bool active) {
  cbr_.SetActive(active);
  const SimTime mean = active ? params_.mean_active : params_.mean_passive;
  if (mean <= 0) return;  // Degenerate chain: stay in the other state.
  const auto hold =
      static_cast<SimTime>(rng_.Exponential(static_cast<double>(mean)));
  sim_.ScheduleAfter(std::max<SimTime>(hold, 1),
                     [this, active] { EnterState(!active); });
}

}  // namespace whitefi
